"""Golden corpus: pinned fingerprints of the simulator's one datapath.

128 points -- 4 algorithms x 4 organizations x {no fault plan, every
``NAMED_PLAN``} x 2 configurations -- on ``web_graph(400, 2000,
seed=7)`` with 2 PEs, 2 banks, 1 DRAM channel and 2 iterations.  The
``scaled`` configuration uses ``SCALED_DEFAULTS``; the ``starved`` one
is an MSHR-starved point (structure scale 1/256 against a 300-cycle,
256-deep DRAM queue) on which banks sleep through hopeless MSHR
retries.

Each point records:

* ``cycles`` and ``iterations``;
* ``full`` -- SHA-256 of the run stats, so it also pins scheduler
  activity and the stalled-tick counters;
* ``model`` -- SHA-256 of the stats without the execution-strategy
  fields (:data:`STRATEGY_KEYS`): what any correct schedule of the
  same model must reproduce;
* ``values`` -- SHA-256 of the output value array.

The test replays every point and compares ``cycles``, ``iterations``,
``full`` and ``values``.  Regenerate the file only for an intended
model change::

    PYTHONPATH=src python -m tests.golden.test_corpus tests/golden/corpus.json
"""

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.accel.config import ArchitectureConfig, SCALED_DEFAULTS, _design
from repro.accel.system import AcceleratorSystem
from repro.faults.plan import NAMED_PLANS
from repro.graph import web_graph
from repro.mem.dram import DramTimings

CORPUS = Path(__file__).with_name("corpus.json")

ALGORITHMS = ("pagerank", "bfs", "sssp", "scc")
ORGANIZATIONS = ("shared", "private", "two-level", "traditional")
PLANS = (None,) + tuple(sorted(NAMED_PLANS))
CONFIGS = ("scaled", "starved")

#: Stats fields that describe how the engine scheduled the run rather
#: than what the model computed: activity counters, the idle
#: fast-forward, and the stalled-*tick* counters (DESIGN 6.1).
STRATEGY_KEYS = ("engine", "cycles_skipped", "moms_request_stalls",
                 "stall_breakdown")


@functools.cache
def _graph():
    return web_graph(400, 2000, seed=7)


def _config(organization, algorithm, kind):
    design = _design(2, 2, organization, algorithm, n_channels=1,
                     private_cache_kib=16)
    if kind == "scaled":
        return ArchitectureConfig(design, **SCALED_DEFAULTS)
    config = ArchitectureConfig(
        design, **dict(SCALED_DEFAULTS, structure_scale=1 / 256))
    config.dram_timings = DramTimings(latency=300, request_queue_depth=256)
    return config


def point_key(algorithm, organization, plan, kind):
    return f"{algorithm}/{organization}/{plan or 'none'}/{kind}"


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _stats_sha(stats):
    return _sha(json.dumps(stats, sort_keys=True).encode())


def fingerprint(algorithm, organization, plan, kind):
    """Run one corpus point and return its fingerprint record."""
    fault_plan = NAMED_PLANS[plan]() if plan else None
    system = AcceleratorSystem(
        _graph(), algorithm, _config(organization, algorithm, kind),
        fault_plan=fault_plan,
    )
    return result_fingerprint(system.run(max_iterations=2))


def result_fingerprint(result):
    """The fingerprint record of one finished run."""
    model = {key: value for key, value in result.stats.items()
             if key not in STRATEGY_KEYS}
    values = result.values
    return {
        "cycles": result.cycles,
        "iterations": result.iterations,
        "full": _stats_sha(result.stats),
        "model": _stats_sha(model),
        "values": _sha(str(values.dtype).encode() + values.tobytes()),
    }


def all_points():
    return [(a, o, p, k) for a in ALGORITHMS for o in ORGANIZATIONS
            for p in PLANS for k in CONFIGS]


def combined(corpus, field):
    """One short hash over *field* of every point, in key order."""
    lines = "".join(f"{key}:{corpus[key][field]}\n"
                    for key in sorted(corpus))
    return _sha(lines.encode())[:12]


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def test_corpus_covers_every_point(corpus):
    assert sorted(corpus) == sorted(point_key(*p) for p in all_points())


@pytest.mark.parametrize("organization", ORGANIZATIONS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_replay_matches_corpus(algorithm, organization, corpus):
    for plan in PLANS:
        for kind in CONFIGS:
            key = point_key(algorithm, organization, plan, kind)
            got = fingerprint(algorithm, organization, plan, kind)
            want = corpus[key]
            for field in ("cycles", "iterations", "full", "values"):
                assert got[field] == want[field], f"{key}: {field}"


def main(argv):
    out = Path(argv[0]) if argv else CORPUS
    corpus = {point_key(*p): fingerprint(*p) for p in all_points()}
    out.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"{len(corpus)} points -> {out}; combined full "
          f"{combined(corpus, 'full')}, model {combined(corpus, 'model')}")


if __name__ == "__main__":
    main(sys.argv[1:])
