"""Seeded inputs: one-shot instances and ECO edit streams.

Everything here is a pure function of ``--seed`` (and of the operation
count, which a run derives from ``--seconds``), so the same seed gives the
same inputs in any process.  Randomness comes from :class:`random.Random`
instances seeded by :func:`common.derive_seed`, never from ``hash()``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from common import derive_seed

# One-shot job shapes, cycled in this order: (suite name, scale, critical
# ratio in percent).  6- and 8-layer stacks, grids from 14x14 to 31x31,
# ratios 0.5-2% as in the paper's Fig. 9.  Scales are far below the suite's
# 1.0 so that one job takes about a second and a run holds enough jobs for
# a median and a tail.
ONESHOT_SHAPES: Sequence[Tuple[str, float, float]] = (
    ("adaptec1", 0.2, 1.0),
    ("bigblue1", 0.2, 2.0),
    ("newblue1", 0.12, 1.0),
    ("bigblue4", 0.04, 0.5),
    ("adaptec2", 0.2, 0.5),
    ("bigblue1", 0.3, 0.5),
    ("adaptec1", 0.3, 0.5),
    ("newblue7", 0.02, 2.0),
)

# Edit kinds of one ECO cycle, in order: mostly small edit sets, with a
# worst-k release round closing each cycle.
ECO_CYCLE: Sequence[str] = (
    "net_resize", "capacity_change", "net_resize", "net_reroute",
    "net_resize", "capacity_change", "net_resize", "release_nets",
)
RESIZE_FACTORS = (0.5, 0.8, 1.25, 2.0)


@dataclass(frozen=True)
class OneshotJob:
    index: int
    name: str
    scale: float
    ratio_percent: float
    instance_seed: int


def oneshot_jobs(seed: int, count: int) -> List[OneshotJob]:
    """``count`` distinct instances in a seeded order.

    Job ``i`` has shape ``i`` of the cycle and a generator seed fixed by
    ``i``, so every seed runs the same instances; ``seed`` shuffles their
    order.  Job times differ by up to 3x between instances of one shape, and
    a run holds too few jobs to average that out across seeds.
    """
    jobs = [
        OneshotJob(
            index=i,
            name=ONESHOT_SHAPES[i % len(ONESHOT_SHAPES)][0],
            scale=ONESHOT_SHAPES[i % len(ONESHOT_SHAPES)][1],
            ratio_percent=ONESHOT_SHAPES[i % len(ONESHOT_SHAPES)][2],
            instance_seed=derive_seed("oneshot", i),
        )
        for i in range(count)
    ]
    random.Random(derive_seed("oneshot-order", seed)).shuffle(jobs)
    return jobs


def generate_instance(job: OneshotJob):
    """The job's benchmark: the suite shape with the job's own generator seed."""
    from repro.ispd.suite import spec_for
    from repro.ispd.synthetic import generate

    return generate(replace(spec_for(job.name, job.scale), seed=job.instance_seed))


@dataclass(frozen=True)
class Design:
    """What an edit generator needs to know about the design it edits."""

    num_nets: int
    nx: int
    ny: int
    num_layers: int


def design_of(name: str, scale: float) -> Design:
    from repro.ispd.suite import spec_for

    spec = spec_for(name, scale)
    return Design(spec.num_nets, spec.nx, spec.ny, spec.num_layers)


def edit_batch(rng: random.Random, kind: str, design: Design,
               release_k: int) -> list:
    """One edit set of ``kind`` with targets drawn from ``rng``."""
    from repro.eco.edits import EcoEdit

    if kind == "net_resize":
        count = rng.randint(1, 5)
        nets = tuple(sorted(rng.sample(range(design.num_nets), count)))
        return [EcoEdit(op=kind, nets=nets, factor=rng.choice(RESIZE_FACTORS))]
    if kind == "capacity_change":
        return [EcoEdit(
            op=kind,
            tile=(rng.randrange(design.nx), rng.randrange(design.ny)),
            layer=rng.randint(1, design.num_layers),
            delta=rng.choice((-2, -1, 1, 2)),
        )]
    if kind == "net_reroute":
        return [EcoEdit(op=kind, nets=(rng.randrange(design.num_nets),))]
    if kind == "release_nets":
        return [EcoEdit(op=kind, worst=release_k)]
    raise ValueError(f"unknown edit kind {kind!r}")


def eco_stream(seed: int, count: int, design: Design,
               release_k: int) -> List[Tuple[str, list]]:
    """``count`` edit sets cycling through :data:`ECO_CYCLE`.

    The edit sets themselves are a fixed pool; ``seed`` shuffles the sets
    of each kind among that kind's slots of the cycle.  Drawing the targets
    from the seed moved the median apply time by 30% between seeds, more
    than the program changes this benchmark should resolve.
    """
    rng = random.Random(derive_seed("eco-pool", count))
    kinds = [ECO_CYCLE[i % len(ECO_CYCLE)] for i in range(count)]
    pool = [edit_batch(rng, kind, design, release_k) for kind in kinds]
    order = random.Random(derive_seed("eco-order", seed))
    for kind in dict.fromkeys(kinds):
        slots = [i for i, k in enumerate(kinds) if k == kind]
        shuffled = [pool[i] for i in slots]
        order.shuffle(shuffled)
        for i, batch in zip(slots, shuffled):
            pool[i] = batch
    return list(zip(kinds, pool))
