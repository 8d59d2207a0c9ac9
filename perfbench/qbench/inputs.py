"""Seeded workload inputs.

Every input is a pure function of the workload seed: item ``i`` draws
its own RNG seed from :func:`repro.xsd.generator.derive_seed`, so the
same seed yields byte-identical XSD text on any machine and a
different seed yields different schemas.  The program under test only
ever sees the generated XSD text.

Three input families:

- :func:`served_pair` -- ``(base, mutated)`` pairs of 15-90 nodes
  (the PO ... DCMD range of the paper's Table 1) with the mutator's
  gold map, a fixed share of them with repeated sibling labels, plus
  the bundled PO, Book and Inventory pairs;
- :func:`large_pair` -- ~300-node pairs for the library call;
- :func:`corpus_schemas` / :func:`search_queries` -- a
  ``synthetic_corpus_configs`` corpus and held-out mutations of its
  members.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from repro.xsd.generator import (
    GeneratorConfig,
    SchemaGenerator,
    derive_seed,
    synthetic_corpus_configs,
    vocabulary_pool,
)
from repro.xsd.mutations import MutationConfig, SchemaMutator
from repro.xsd.serializer import to_xsd

#: The seed kept out of every tuning run: a later speed claim is
#: re-checked on it (see ``perfbench/README.md``).
HELD_OUT_SEED = 914_2005

#: Share of generated served pairs whose source repeats a sibling label.
DUPLICATE_SHARE = 0.125

#: Shared label pool size for served pairs: labels recur across requests.
SERVED_POOL = 160

#: Served source sizes (nodes), 40 steps over 15-90, the PO ... DCMD
#: range of Table 1, in one fixed small/large interleaving.  Pair ``i``
#: takes size ``SIZE_LADDER[i % 40]``, so every seed sends the same sizes
#: in the same order and only the schemas themselves differ: the
#: open-loop queue then sees the same load pattern on every seed.  Half
#: the steps are the 1-node band 43-62 around the middle of the range and
#: a quarter each walk 3-node steps below and above it, so the median
#: latency rests on twenty similar requests rather than on the two or
#: three nearest the middle of an even ladder.
_SIZES = ([15 + 3 * step for step in range(10)] + list(range(43, 63))
          + [63 + 3 * step for step in range(10)])
SIZE_LADDER = tuple(
    size for pair in zip(_SIZES[:20], reversed(_SIZES[20:])) for size in pair
)

LARGE_NODES = 300
LARGE_DEPTH = 6

CORPUS_SIZE = 2000

SERVED_MUTATION = dict(
    rename_probability=0.25, shuffle_probability=0.1,
    retype_probability=0.05, drop_probability=0.05, add_probability=0.05,
)
LARGE_MUTATION = dict(
    rename_probability=0.3, shuffle_probability=0.1,
    retype_probability=0.05,
)
QUERY_MUTATION = dict(
    rename_probability=0.25, shuffle_probability=0.1,
    drop_probability=0.05,
)


@dataclass(frozen=True)
class Pair:
    """One source/target request with its gold map."""

    name: str
    source_xsd: str
    target_xsd: str
    #: Gold correspondences as ``(source_path, target_path)``.
    gold: tuple
    #: Alternate gold pairs (bundled datasets only) as
    #: ``(alternate, primary)``.
    alternates: tuple
    source_nodes: int
    target_nodes: int
    duplicate: bool = False

    @property
    def node_pairs(self) -> int:
        return self.source_nodes * self.target_nodes

    def body(self) -> bytes:
        """The ``POST /match`` body."""
        return json.dumps({
            "source_xsd": self.source_xsd, "target_xsd": self.target_xsd,
        }).encode("utf-8")


@dataclass(frozen=True)
class Query:
    """One held-out ``POST /search`` query and the schema it came from."""

    name: str
    xsd: str
    origin: str
    nodes: int

    def body(self, k: int = 10) -> bytes:
        return json.dumps({"query_xsd": self.xsd, "k": k}).encode("utf-8")


def _duplicate_sibling(tree, rng, diverge: bool = False) -> bool:
    """Repeat one sibling label.

    By default the second element child becomes a copy of the first
    (same label, same subtree) -- two sibling ``<A>`` subtrees, whose
    node paths collide.  With ``diverge`` the second child keeps its own
    subtree and only takes the first child's label.
    """
    parents = [
        node for node in tree.root.iter_preorder()
        if len([c for c in node.children if not c.is_attribute]) >= 2
    ]
    if not parents:
        return False
    parent = rng.choice(parents)
    first, second = [c for c in parent.children if not c.is_attribute][:2]
    if diverge:
        second.name = first.name
    else:
        position = parent.children.index(second)
        parent.remove_child(second)
        parent.add_child(first.copy(), position=position)
    return True


def _pair(name, base, mutation_seed, mutation, duplicate=False, rng=None,
          diverge=False):
    if duplicate:
        duplicate = _duplicate_sibling(base, rng, diverge=diverge)
    mutated, gold = SchemaMutator(
        MutationConfig(seed=mutation_seed, **mutation)
    ).mutate(base, name=f"{name}T")
    return Pair(
        name=name,
        source_xsd=to_xsd(base),
        target_xsd=to_xsd(mutated),
        gold=tuple(sorted(set(gold))),
        alternates=(),
        source_nodes=base.size,
        target_nodes=mutated.size,
        duplicate=duplicate,
    )


def served_pair(seed: int, index: int, duplicate: bool,
                diverge: bool = False) -> Pair:
    """Generated served pair ``index`` of workload ``seed``.

    ``duplicate`` repeats one sibling label in the source (see
    :func:`_duplicate_sibling` for ``diverge``).
    """
    rng = random.Random(derive_seed(seed, index, label="served"))
    pool = vocabulary_pool(SERVED_POOL, master_seed=seed)
    config = GeneratorConfig(
        n_nodes=SIZE_LADDER[index % len(SIZE_LADDER)],
        max_depth=rng.randint(2, 5),
        seed=derive_seed(seed, index, label="served-tree"),
        vocabulary=tuple(rng.sample(pool, 20)),
        root_name=f"S{index:05d}",
    )
    base = SchemaGenerator(config).generate()
    return _pair(
        f"S{index:05d}", base, derive_seed(seed, index, label="served-mut"),
        SERVED_MUTATION, duplicate=duplicate, rng=rng, diverge=diverge,
    )


def duplicate_indexes(seed: int, count: int) -> frozenset:
    """The seeded, fixed-share set of generated pairs with a repeated label."""
    rng = random.Random(derive_seed(seed, 0, label="duplicates"))
    return frozenset(
        rng.sample(range(count), round(count * DUPLICATE_SHARE))
    )


def bundled_pairs() -> list:
    """The PO, Book and Inventory pairs with their curated gold maps."""
    from repro.datasets import bibliographic, inventory, po

    out = []
    for name, source, target, gold in (
        ("PO", po.po1(), po.po2(), po.gold_po()),
        ("Book", bibliographic.article(), bibliographic.book(),
         bibliographic.gold_article_book()),
        ("Inventory", inventory.warehouse(), inventory.store(),
         inventory.gold_inventory()),
    ):
        out.append(Pair(
            name=name,
            source_xsd=to_xsd(source),
            target_xsd=to_xsd(target),
            gold=tuple(sorted(gold.pairs)),
            alternates=tuple(sorted(gold.alternates.items())),
            source_nodes=source.size,
            target_nodes=target.size,
        ))
    return out


def large_pair(seed: int, index: int) -> Pair:
    rng = random.Random(derive_seed(seed, index, label="large"))
    pool = vocabulary_pool(SERVED_POOL, master_seed=seed)
    config = GeneratorConfig(
        n_nodes=LARGE_NODES,
        max_depth=LARGE_DEPTH,
        seed=derive_seed(seed, index, label="large-tree"),
        vocabulary=tuple(rng.sample(pool, 48)),
        root_name=f"L{index:03d}",
    )
    base = SchemaGenerator(config).generate()
    return _pair(
        f"L{index:03d}", base, derive_seed(seed, index, label="large-mut"),
        LARGE_MUTATION,
    )


def corpus_schemas(seed: int, count: int = CORPUS_SIZE) -> list:
    """The ``count``-schema search corpus as XSD text, in index order."""
    return [
        to_xsd(SchemaGenerator(config).generate())
        for config in synthetic_corpus_configs(count, master_seed=seed)
    ]


def search_queries(seed: int, corpus_xsd: list, count: int) -> list:
    """Held-out mutations of seeded corpus members (never in the corpus)."""
    from repro.xsd.parser import parse_xsd

    rng = random.Random(derive_seed(seed, 0, label="queries"))
    origins = rng.sample(range(len(corpus_xsd)), count)
    queries = []
    for number, origin in enumerate(origins):
        base = parse_xsd(corpus_xsd[origin])
        mutated, _ = SchemaMutator(MutationConfig(
            seed=derive_seed(seed, number, label="query-mut"),
            **QUERY_MUTATION,
        )).mutate(base, name=f"Q{number:04d}")
        queries.append(Query(
            name=f"Q{number:04d}",
            xsd=to_xsd(mutated),
            origin=base.name,
            nodes=mutated.size,
        ))
    return queries


def fingerprint(items) -> str:
    """A digest of generated inputs (the determinism tests compare it)."""
    digest = hashlib.blake2b(digest_size=16)
    for item in items:
        digest.update(repr(item).encode("utf-8"))
    return digest.hexdigest()
