"""The four benchmark workloads, as lists of CLI ops.

An op is one sparsetrees subcommand with its JSON config; a pass is the
workload's op list run once.  Each workload stresses a different module:

* mc-angles: the paper's Monte Carlo check of the growth exponent (AC4).
  The only workload that samples omega trees and runs many trials at one
  angle, so batching across trials shows only here.  It mixes the
  fixed-point reducer (phi 1.0 and 2.0) and the exact-rational one
  (phi = pi/2).  The workload seed is the Monte Carlo seed.
* phase-sweep: one efgp-run trajectory per distinct angle, with CSV
  output.  No trials to batch and no reducer constant shared across
  angles; the only workload where report serialization does real work.
* decompose-dense: the AC1 block-decomposition check.  Two dense
  eigensolves of 2,863 rows dominate; the phase code is not used.
* spectrum-deep: a 6,001-row degree-variant block and one large
  tridiagonal eigensolve (10,001 rows, solved twice because coverage
  re-solves the root block), so the tridiagonal path is measured at a
  size where its cost shows.

Only mc-angles draws random inputs; the other three are the same for
every seed.  Smoke sizes keep the same op shapes at a fraction of the
work; they warm up every run and test the harness.
"""

REFERENCE_SEED = 20260822

WORKLOADS = ("mc-angles", "phase-sweep", "decompose-dense", "spectrum-deep")

# Fresh-process samples per run: set-up of every config, and cold runs of
# the first op.  Fresh processes jitter more than warm passes, so they get
# more samples where they are cheap.  decompose-dense's first op is its
# whole 7-8 s pass, so it gets two cold samples to keep the run inside its
# time budget.
SETUP_REPEATS = 3
COLD_REPEATS = {"mc-angles": 5, "phase-sweep": 5, "decompose-dense": 2, "spectrum-deep": 5}

# The speed probe (run.PROBES) that scales a workload's pass and cold times:
# the kind of work that dominates its passes.  Load from other tenants slows
# interpreter code, dense LAPACK and tridiagonal LAPACK by different amounts,
# so a probe only tracks work of its own kind.
PROBE = {
    "mc-angles": "python",
    "phase-sweep": "python",
    "decompose-dense": "dense",
    "spectrum-deep": "tridiagonal",
}


def _mc_angles(seed: int, smoke: bool) -> list[dict]:
    base = {
        "subcommand": "mc-exponent",
        "k": 2,
        "gamma": 3,
        "n_bumps": 200 if smoke else 2000,
        "trials": 4 if smoke else 20,
        "seed": seed,
    }
    return [
        {**base, "phi": 1.0},
        {**base, "phi": 2.0},
        {**base, "phi_pi_multiple": "1/2"},
    ]


def _phase_sweep(seed: int, smoke: bool) -> list[dict]:
    spec = {"family": "gamma", "k": 2, "gamma": 3, "N": 200 if smoke else 2000}
    count = 5 if smoke else 25
    return [
        {
            "subcommand": "efgp-run",
            "spec": spec,
            "phi": round(0.10 + 0.12 * i, 2),
            "format": "csv",
        }
        for i in range(count)
    ]


def _decompose_dense(seed: int, smoke: bool) -> list[dict]:
    return [
        {
            "subcommand": "decompose",
            "spec": {"family": "gamma", "k": 2, "gamma": "5/2", "N": 5 if smoke else 9},
            "depth": 40 if smoke else 150,
            "variant": "both",
        }
    ]


def _spectrum_deep(seed: int, smoke: bool) -> list[dict]:
    # The cheaper degree-variant op runs first, so the cold sample of the
    # first op stays short.
    return [
        {
            "subcommand": "spectrum",
            "spec": {"family": "gamma", "k": 2, "gamma": "5/2", "N": 12},
            "depth": 300 if smoke else 6000,
            "variant": "degree",
        },
        {
            "subcommand": "spectrum",
            "spec": {"family": "gamma", "k": 2, "gamma": 3, "N": 10},
            "depth": 500 if smoke else 10000,
            "coverage": {"eps": 0.02, "grid_points": 1000},
        },
    ]


_BUILDERS = {
    "mc-angles": _mc_angles,
    "phase-sweep": _phase_sweep,
    "decompose-dense": _decompose_dense,
    "spectrum-deep": _spectrum_deep,
}


def ops(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """Config dicts of one pass, in run order."""
    return _BUILDERS[workload](seed, smoke)


def has_reference(workload: str, seed: int, smoke: bool) -> bool:
    """Whether stored reference values apply to this run's outputs."""
    if smoke:
        return False
    return workload != "mc-angles" or seed == REFERENCE_SEED
