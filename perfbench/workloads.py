"""The four workloads: which documents a round holds and which commands run on them.

A run is a sequence of rounds.  Every round of a workload has the same
composition (the same instance families, sizes, moduli and commands), but
each round draws its own relabelings or random documents from
``random.Random(f"{workload}:{seed}:{round}")``, so the same seed gives the
same inputs.  No document repeats within a round, and no relabeled one
within a run; each job runs in a process of its own.  Rounds list their
jobs in the same order, which the runner's per-position medians rely on.

Each job carries the facts the correctness gate checks its outputs against:
closed forms for the named complexes, identities for the random corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

from . import inputs

MODULI = (2, 3, 4, 5, 6)

# Every instance family (complex, size, modulus, command) has one
# operation per round.  A round is short enough that several fit a run,
# so each per-position median has several samples, and holds an odd
# number of operations, so that op_s_p50 falls inside one family rather
# than between two.

# grid_params round: (k, l, D), one grid per size 6x6 to 10x10, the moduli
# taking turns; 2-3 s per round on 2 cores.  op_s_p50 is the 8x8 op.
GRID_PARAMS = ((6, 6, 2), (7, 7, 3), (8, 8, 6), (9, 9, 2), (10, 10, 3))

# grid_distance round: rp2 (NoLogicals at D = 3, d = 1 at D = 4), the
# one-cell torus, then (k, l, D) grids; about 1.5 s per round.  op_s_p50 is
# the 3x3 D=2 op.
GRID_DISTANCE_NAMED = (("rp2", 3), ("rp2", 4), ("torus", 2), ("torus", 6))
GRID_DISTANCE = ((3, 3, 2), (3, 3, 3), (3, 4, 3), (3, 3, 6), (4, 4, 2))

# oracle_verify round: (k, l, D, level).  256 < D^n <= 4096 at level full
# (dense projector, logical action); a 15,625-element stabilizer group at
# level quick (group closure).  About 9 s per round, 7-8 s of it
# the 4096-dimensional 1x3 D=4 op.  op_s_p50 is the 1x5 D=2 op.
ORACLE_VERIFY = ((1, 2, 5, "full"), (1, 3, 3, "full"), (1, 5, 2, "full"), (2, 2, 5, "quick"),
                 (1, 3, 4, "full"))

# `verify` on a complex with no edges raises a ValueError in
# oracle.complement_duality_checks, a known defect of the library.
# `convert` gives such a complex exactly when every hyperedge is a single
# dart (alpha is the identity): every 1-dart hypermap, and by chance some
# larger ones.  On those jobs `verify` is a probe (``Job.probe``): it runs,
# and its outcome is reported, but it is neither timed nor counted as
# attempted or failed, so that `failed` counts only new failures.
KNOWN_DEFECT = "verify on a complex with no edges"

# corpus_mixed round: one hypermap per (dart count, modulus) pair and one
# random complex per (edge count, modulus) pair, kept to D^edges <= 4096,
# the exhaustive cap of `verify --level quick`, so that every operation
# stays small.  Without the cap one round in three or four held a 3-12 s
# group closure, and round times were too heavy-tailed to compare runs.
CORPUS_SPACE_CAP = 4096
CORPUS_HYPERMAPS = tuple((n, D) for n in range(1, 9) for D in MODULI if D ** (n - 1) <= CORPUS_SPACE_CAP)
CORPUS_COMPLEXES = tuple((e, D) for e in range(1, 7) for D in MODULI if D**e <= CORPUS_SPACE_CAP)


@dataclass
class Job:
    """One input document and the commands run on it, in order.

    Each command omits the document path, which the runner inserts after
    the subcommand.  A ``convert`` command hands the ``complex`` member of
    its output to the commands after it.  ``facts`` holds what the gate
    knows about the answer: ``modulus`` always; ``n``, ``K`` and
    ``distance`` for named complexes.  ``probe``, when set, is a command
    that hits ``KNOWN_DEFECT``; it runs after the others, untimed and
    uncounted.
    """

    name: str
    doc: dict
    commands: list[list[str]]
    facts: dict = field(default_factory=dict)
    probe: list[str] | None = None


def _grid_job(rng, tag: str, k: int, l: int, D: int, command: list[str]) -> Job:
    doc = inputs.relabel(inputs.torus_grid_doc(k, l, D), rng)
    facts = {"modulus": D, "n": 2 * k * l, "K": D**2, "distance": min(k, l)}
    return Job(f"{tag}-grid{k}x{l}-D{D}", doc, [command], facts)


def _named_job(rng, tag: str, name: str, D: int, command: list[str]) -> Job:
    if name == "rp2":
        doc = inputs.rp2_doc(D)
        K = gcd(2, D)
        facts = {"modulus": D, "n": 1, "K": K, "distance": 1 if K > 1 else "NoLogicals"}
    else:
        doc = inputs.torus_doc(D)
        facts = {"modulus": D, "n": 2, "K": D**2, "distance": 1}
    return Job(f"{tag}-{name}-D{D}", inputs.relabel(doc, rng), [command], facts)


def grid_params(rng, tag):
    return [_grid_job(rng, tag, k, l, D, ["params", "--verify", "--budget", "1"])
            for k, l, D in GRID_PARAMS]


def grid_distance(rng, tag):
    jobs = [_named_job(rng, tag, name, D, ["distance"]) for name, D in GRID_DISTANCE_NAMED]
    jobs += [_grid_job(rng, f"{tag}.{i}", k, l, D, ["distance"])
             for i, (k, l, D) in enumerate(GRID_DISTANCE)]
    return jobs


def oracle_verify(rng, tag):
    return [_grid_job(rng, f"{tag}.{i}-{level}", k, l, D, ["verify", "--level", level, "--format", "json"])
            for i, (k, l, D, level) in enumerate(ORACLE_VERIFY)]


def _hypermap_job(rng, tag: str, n: int, D: int) -> Job:
    doc = inputs.random_hypermap_doc(rng, D, n)
    commands, verify = [["convert"], ["params"]], ["verify", "--format", "json"]
    if all(len(cycle) == 1 for cycle in doc["alpha"]):
        return Job(f"{tag}-hypermap{n}-D{D}", doc, commands, {"modulus": D}, probe=verify)
    return Job(f"{tag}-hypermap{n}-D{D}", doc, [*commands, verify], {"modulus": D})


def corpus_mixed(rng, tag):
    jobs = [_hypermap_job(rng, tag, n, D) for n, D in CORPUS_HYPERMAPS]
    jobs += [Job(f"{tag}-complex{e}-D{D}", inputs.random_complex_doc(rng, D, e),
                 [["validate"], ["params"], ["verify", "--format", "json"]], {"modulus": D})
             for e, D in CORPUS_COMPLEXES]
    return jobs


WORKLOADS = {
    "grid_params": grid_params,
    "grid_distance": grid_distance,
    "oracle_verify": oracle_verify,
    "corpus_mixed": corpus_mixed,
}


def round_jobs(workload: str, seed: int, round_index: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    return WORKLOADS[workload](rng, f"s{seed}r{round_index}")
