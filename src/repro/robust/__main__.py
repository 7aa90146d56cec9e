"""Fault-injection campaign CLI: ``python -m repro.robust [options]``.

Runs a deterministic fault-injection campaign over the page-overlay
machine: for each rate multiplier, ``--trials`` seeded trials execute a
synthetic CoW-heavy workload with faults armed, the invariant checker
sweeping at ``--check-interval`` simulated cycles, and each trial is
classified against a golden (fault-free) run as masked / corrected /
detected_recovered / silent_corruption / crash.  The campaign document
lands crash-safely in ``<results-dir>/<name>.faults.json`` and
validates against the ``repro.obs`` fault-campaign schema.

Same ``--seed`` + same plan => byte-identical artifact (the CI
robustness job runs the smoke campaign twice and diffs the files).

``--fleet-workers N`` shards the campaign per (rate, trial) through
``repro.fleet`` and runs the shards on N worker processes (``0`` =
auto: ``$REPRO_FLEET_WORKERS``, then the CPU count); the merged
document is byte-identical to the serial run (the CI fleet job diffs
them).  Each shard leaves a content-addressed artifact under
``<results-dir>/fleet/<name>/``; ``--resume`` reuses those artifacts,
so a killed run continues where it stopped and a second identical
invocation performs zero simulation work (the summary line reports the
shard-level cached/executed split).
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from .campaign import OUTCOMES, check_rates, run_campaign
from .faults import ECC_MODES

#: The stock sweep: from faults-almost-never to faults-constantly.
DEFAULT_RATES = (0.0, 0.002, 0.01, 0.05)


def _rate_list(text: str) -> List[float]:
    try:
        rates = [float(token) for token in text.split(",") if token]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"needs comma-separated numbers, got {text!r}") from None
    try:
        return check_rates(rates)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _format_summary(doc) -> str:
    lines = [f"fault campaign {doc['name']!r}: "
             f"{sum(doc['outcome_totals'].values())} trial(s)"]
    header = "rate".rjust(8) + "".join(o.rjust(20) for o in OUTCOMES)
    lines.append(header)
    for entry in doc["sweep"]:
        row = f"{entry['rate']:>8g}"
        for outcome in OUTCOMES:
            row += f"{entry['outcomes'][outcome]:>20d}"
        lines.append(row)
    totals = doc["outcome_totals"]
    lines.append("total".rjust(8)
                 + "".join(f"{totals[o]:>20d}" for o in OUTCOMES))
    return "\n".join(lines)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.robust", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False)
    parser.add_argument("--name", default="fault_campaign",
                        help="campaign name: the artifact is "
                             "<results-dir>/<name>.faults.json")
    parser.add_argument("--rates", type=_rate_list, default=DEFAULT_RATES,
                        metavar="R1,R2,...",
                        help="fault-rate multipliers, finite and "
                             "non-negative (default: "
                             f"{','.join(map(str, DEFAULT_RATES))})")
    parser.add_argument("--trials", type=int, default=4, metavar="N",
                        help="seeded trials per rate (default: 4)")
    parser.add_argument("--ops", type=int, default=160, metavar="N",
                        help="workload operations per trial (default: 160)")
    parser.add_argument("--pages", type=int, default=4, metavar="N",
                        help="pages the workload touches (default: 4)")
    parser.add_argument("--cores", type=int, default=2, metavar="N",
                        help="cores per machine (default: 2)")
    parser.add_argument("--ecc", choices=ECC_MODES, default="secded",
                        help="DRAM ECC model (default: secded)")
    parser.add_argument("--check-interval", type=int, default=0,
                        metavar="CYCLES",
                        help="invariant sweep period in simulated cycles "
                             "(default: 0)")
    parser.add_argument("--no-recover", dest="recover",
                        action="store_false",
                        help="detect violations without repairing them")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="base RNG seed (default: the config's)")
    parser.add_argument("--results-dir", default=None, metavar="DIR",
                        help="artifact directory (default: results)")
    parser.add_argument("--fleet-workers", type=int, default=None,
                        metavar="N",
                        help="shard the trials over N worker processes "
                             "(0 = auto)")
    parser.add_argument("--resume", action="store_true",
                        help="reuse the shard artifacts of a previous run")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if min(args.trials, args.ops, args.pages, args.cores) < 1 \
                or args.check_interval < 0:
            parser.error("--trials/--ops/--pages/--cores must be positive "
                         "and --check-interval non-negative")
        if args.fleet_workers is not None and args.fleet_workers < 0:
            parser.error("--fleet-workers must be >= 0 (0 = auto)")
    except SystemExit as stop:  # --help (0) or a usage error (2)
        return stop.code
    fleet_summary = {} if args.fleet_workers is not None else None
    doc = run_campaign(args.name, args.rates, trials=args.trials,
                       ops=args.ops, pages=args.pages, cores=args.cores,
                       ecc=args.ecc, check_interval=args.check_interval,
                       recover=args.recover, seed=args.seed,
                       results_dir=args.results_dir,
                       fleet_workers=args.fleet_workers, resume=args.resume,
                       fleet_summary=fleet_summary)
    print(_format_summary(doc))
    if fleet_summary:
        corrupt = fleet_summary.get("corrupt", 0)
        print(f"[fleet: {fleet_summary['shards']} shard(s): "
              f"{fleet_summary['hits']} cached, "
              f"{fleet_summary['misses']} executed, "
              f"{fleet_summary['workers']} worker(s)"
              + (f", {corrupt} corrupt artifact(s) recomputed"
                 if corrupt else "") + "]")
    print(f"[wrote {(args.results_dir or 'results')}/{args.name}.faults.json]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
