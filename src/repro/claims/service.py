"""Claim: the service sheds overload explicitly, fairly and reproducibly.

The :mod:`repro.loadgen` scenarios replay through the sans-IO service
core in virtual time, in two legs of about a second each (``quick``
runs them unchanged):

- ``chaos``, under the ``smoke`` client-chaos profile: every scenario
  re-runs with identical admission decisions and answers each
  submission exactly once, ``sustained2x`` rejects, ``spike`` recovers;
- ``bounds``, without chaos: the ``onehot`` hot tenant stays near its
  fair share while the light tenants keep their p99 (against the
  ``baseline`` run) and served fraction; ``sustained2x`` holds
  throughput near capacity; ``spike`` degrades and recovers; ``ramp``
  degrades before anything else.
"""

from repro.faults.chaos import ServiceChaosProfile
from repro.loadgen.scenarios import SCENARIOS, capacity_rps, run_scenario, service_config
from repro.service.protocol import Status

DURATION_S = 30.0
CHAOS_SEED = 23
BOUND_SEED = 0

MAX_HOT_SHARE = 1.15
MAX_LIGHT_P99_RATIO = 2.0
P99_FLOOR_S = 1.0
MIN_LIGHT_SERVED = 0.8
THROUGHPUT_BAND = (0.7, 1.1)
MIN_SPIKE_TRANSITIONS = 2


def _one_terminal_each(result):
    try:
        result.check_one_terminal_response_each()
    except AssertionError:
        return False
    return True


def _chaos_run(name):
    summary, result, core = run_scenario(
        name, seed=CHAOS_SEED, duration_s=DURATION_S, chaos=ServiceChaosProfile.smoke()
    )
    return summary, _one_terminal_each(result), core.decision_log


def measure_chaos():
    scenarios = {}
    for name in SCENARIOS:
        (summary, terminal, decisions), (_, _, again) = _chaos_run(name), _chaos_run(name)
        scenarios[name] = {
            "responses": summary["responses"],
            "one_terminal_each": terminal,
            "deterministic_rerun": decisions == again,
            "recovered_to_healthy": summary["recovered_to_healthy"],
        }
    return {"scenarios": scenarios}


def _rejected(statuses):
    return statuses.get(Status.REJECTED_OVERLOAD, 0)


def measure_bounds():
    runs = {
        name: run_scenario(name, seed=BOUND_SEED, duration_s=DURATION_S)
        for name in ("onehot", "baseline", "sustained2x", "spike", "ramp")
    }
    (onehot, _, _), (baseline, _, _) = runs["onehot"], runs["baseline"]
    sustained, spike = runs["sustained2x"][0], runs["spike"][0]
    ramp = runs["ramp"][2].governor.transitions
    light = {n: t for n, t in onehot["tenants"].items() if n.startswith("light-")}
    return {
        "onehot": {
            "fair_share": 0.25 * capacity_rps(service_config()) * DURATION_S,
            "hot_served": onehot["tenants"]["hot"]["served"],
            "hot_rejected": _rejected(onehot["tenants"]["hot"]["statuses"]),
            "light_p99_s": max(t["p99_s"] for t in light.values()),
            "baseline_light_p99_s": max(t["p99_s"] for t in baseline["tenants"].values()),
            "light_served_fraction": {
                n: t["served"] / max(sum(t["statuses"].values()), 1) for n, t in light.items()
            },
        },
        "sustained2x": {
            "capacity_rps": sustained["capacity_rps"],
            "throughput_rps": sustained["throughput_rps"],
            "rejected": _rejected(sustained["responses"]),
        },
        "spike": {
            "rejected": _rejected(spike["responses"]),
            "transitions": len(spike["governor_transitions"]),
            "recovered_to_healthy": spike["recovered_to_healthy"],
        },
        "ramp": {"first_transition": ramp[0][2] if ramp else None},
    }


def measure(quick):
    return {"chaos": measure_chaos(), "bounds": measure_bounds()}


def failures(report):
    chaos = report["chaos"]["scenarios"]
    onehot, sustained, spike = (
        report["bounds"][leg] for leg in ("onehot", "sustained2x", "spike")
    )
    ratio = sustained["throughput_rps"] / sustained["capacity_rps"]
    p99_bound = MAX_LIGHT_P99_RATIO * max(onehot["baseline_light_p99_s"], P99_FLOOR_S)
    first = report["bounds"]["ramp"]["first_transition"]
    checks = []
    for name, run in sorted(chaos.items()):
        checks += [
            (run["deterministic_rerun"], f"chaos {name}: admission decisions diverged"),
            (run["one_terminal_each"],
             f"chaos {name}: a submission lacks exactly one terminal response"),
        ]
    checks += [
        (_rejected(chaos["sustained2x"]["responses"]),
         "chaos sustained2x: overload was never explicitly rejected"),
        (chaos["spike"]["recovered_to_healthy"], "chaos spike: governor did not recover"),
        (onehot["hot_served"] <= MAX_HOT_SHARE * onehot["fair_share"],
         f"onehot hot tenant served {onehot['hot_served']} > {MAX_HOT_SHARE}x fair share "
         f"{onehot['fair_share']:.1f}"),
        (onehot["hot_rejected"] > onehot["hot_served"],
         f"onehot hot tenant rejected {onehot['hot_rejected']} <= served "
         f"{onehot['hot_served']}"),
        (onehot["light_p99_s"] <= p99_bound,
         f"onehot light p99 {onehot['light_p99_s']:.3f} s > {p99_bound:.3f} s"),
        *(
            (fraction > MIN_LIGHT_SERVED,
             f"onehot {name} served fraction {fraction:.3f} <= {MIN_LIGHT_SERVED}")
            for name, fraction in sorted(onehot["light_served_fraction"].items())
        ),
        (THROUGHPUT_BAND[0] < ratio < THROUGHPUT_BAND[1],
         f"sustained2x throughput {ratio:.3f}x capacity outside {THROUGHPUT_BAND}"),
        (sustained["rejected"], "sustained2x rejected nothing"),
        (spike["rejected"], "spike rejected nothing"),
        (spike["transitions"] >= MIN_SPIKE_TRANSITIONS,
         f"spike made {spike['transitions']} governor transitions "
         f"(min {MIN_SPIKE_TRANSITIONS})"),
        (spike["recovered_to_healthy"], "spike: governor did not recover to healthy"),
        (first == "degraded", f"ramp's first governor transition is to {first!r}"),
    ]
    return [message for ok, message in checks if not ok]
