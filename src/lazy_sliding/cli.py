"""Command-line entry point: gen / run / summarize / verify."""

import argparse
import json
import os
import subprocess
import sys

from .bench import gen_instance, run_experiment, summarize, write_json
from .errors import ConfigError


def _read_config(path):
    """The JSON object a config file holds; ConfigError if it holds none or cannot be read."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read config %r: %s %s" % (path, type(exc).__name__, exc)) from exc
    if not isinstance(config, dict):
        raise ConfigError("config %r is not a JSON object" % (path,))
    return config


def _cmd_gen(args):
    spec = _read_config(args.config)
    if args.seed is not None:
        spec["seed"] = args.seed
    out = args.out or "instance.json"
    if os.path.isdir(out) or out.endswith(os.sep):
        out = os.path.join(out, "instance.json")
    # checked before any work; a missing directory is made after, as run makes its --out
    parent = ancestor = os.path.dirname(os.path.abspath(out))
    while not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor) or not os.access(ancestor, os.W_OK | os.X_OK):
        raise ConfigError("cannot write %r: %r is not a writable directory" % (out, ancestor))
    inst = gen_instance(spec)
    os.makedirs(parent, exist_ok=True)
    write_json(out, inst)
    print("wrote %s (region=%s, dim=%d, m=%d)" % (
        out, inst["region"]["kind"], len(inst["objective"]["x_star"]),
        len(inst["objective"]["b"])))
    return 0


def _cmd_run(args):
    summary, code = run_experiment(
        _read_config(args.config), base_dir=os.path.dirname(os.path.abspath(args.config)),
        out_dir=args.out, seeds=args.seeds, time_limit=args.time_limit, jobs=args.jobs)
    _print_summary(summary)
    return code


def _cmd_summarize(args):
    if not os.path.isdir(args.out):
        raise ConfigError("no directory %r to summarize" % (args.out,))
    summary = summarize(args.out)
    write_json(os.path.join(args.out, "summary.json"), summary)
    _print_summary(summary)
    return 0


def _cmd_verify(args):
    """pytest on --tests, by default the acceptance tests of the checkout holding this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tests = args.tests or os.path.join(os.path.dirname(src), "tests", "test_acceptance.py")
    if args.tests is None and not os.path.isfile(tests):
        raise ConfigError("no acceptance tests at %r; give --tests" % (tests,))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.call([sys.executable, "-m", "pytest", tests, "-v"],
                           env=dict(os.environ, PYTHONPATH=path))


def _print_summary(summary):
    for name, info in sorted(summary.get("solvers", {}).items()):
        print("%s (%d runs)" % (name, info["runs"]))
        for thr in summary["thresholds"]:
            cell = info["thresholds"][thr]
            if cell["reached"]:
                # medians as summary.json holds them: one of an even count may be x.5
                print("  f<=%s: %d/%d reached, median outer_k=%s sfo=%s lmo=%s wall_ms=%.1f"
                      % (thr, cell["reached"], cell["of"], cell["outer_k"],
                         cell["sfo_calls"], cell["exact_lmo_calls"], cell["wall_ms"]))
            else:
                print("  f<=%s: 0/%d reached" % (thr, cell["of"]))
    for key, label in (("budget_errors", "BUDGET ERROR"), ("errors", "ERROR")):
        for e in summary.get(key, []):
            constant = e.get("failed_constant")
            print("%s %s seed=%s failed_outer_k=%s%s: %s"
                  % (label, e["solver"], e["seed"], e.get("failed_outer_k"),
                     "" if constant is None else " failed_constant=%s" % constant,
                     e["message"]), file=sys.stderr)


def build_parser():
    p = argparse.ArgumentParser(
        prog="lazy-sliding",
        description="Projection-free optimization benchmarks: generate instances, "
                    "run solver experiments, and summarize convergence traces.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a problem instance from a spec file")
    g.add_argument("--config", required=True, help="generator spec JSON")
    g.add_argument("--out", help="output instance path (default instance.json)")
    g.add_argument("--seed", type=int, help="override the generator seed")
    g.set_defaults(func=_cmd_gen)

    r = sub.add_parser("run", help="run an experiment config over solvers x seeds")
    r.add_argument("--config", required=True, help="experiment config JSON")
    r.add_argument("--out", help="output directory for traces + summary")
    r.add_argument("--seeds", help="seed range a..b or single seed")
    r.add_argument("--time-limit", type=float, help="wall-clock budget per run (s)")
    r.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    r.set_defaults(func=_cmd_run)

    s = sub.add_parser("summarize", help="recompute summary.json from trace CSVs")
    s.add_argument("--out", default=".", help="directory holding trace CSVs (default .)")
    s.set_defaults(func=_cmd_summarize)

    v = sub.add_parser("verify", help="run the acceptance test suite")
    v.add_argument("--tests", help="pytest target (default: tests/test_acceptance.py of the "
                                   "checkout that holds the package)")
    v.set_defaults(func=_cmd_verify)
    return p


def main(argv=None):
    """Exit code 0: every run completed; 1: a run failed; 2: rejected input, nothing written."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        # argparse's code for a usage error, so that a script can tell it from a failed run
        print("lazy-sliding: error: %s" % (exc,), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
