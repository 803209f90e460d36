"""Command-line surface: ad-hoc queries, verification suites, reports."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass

from . import verify as V
from .groups import ExponentLawViolation, order_in_G, parse_word
from .ideals import BurnsideParams, SContext, cyclotomic_lattice
from .rings import PolyParseError, parse_poly

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_OVERRIDE_KEYS = ("samples", "infinite_samples", "witness_budget", "max_len",
                  "max_n", "base_maxlen")


@dataclass
class Config:
    """Run configuration; None overrides mean each suite keeps its own default,
    which is exactly the acceptance setup."""

    qs: tuple = (2, 3, 5)
    seed: int = 0
    jobs: int = 0  # 0 = all available cores
    output: str = "text"
    samples: int | None = None
    infinite_samples: int | None = None
    witness_budget: int | None = None
    max_len: int | None = None
    max_n: int | None = None
    base_maxlen: int | None = None

    def resolved_jobs(self) -> int:
        return self.jobs if self.jobs > 0 else (os.cpu_count() or 1)

    def check(self) -> None:
        """Raise ValueError on an empty q list, on the first unsupported q, on a
        negative seed or jobs count, or on the first override below its least
        value, naming it."""
        if not self.qs:
            raise ValueError("qs must list at least one q")
        if self.seed < 0:
            # random.Random seeds by absolute value, so a negative seed would
            # silently replay the samples of a positive one
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {self.jobs} (0 = all cores)")
        for q in self.qs:
            BurnsideParams.from_q(q)
        for k in _OVERRIDE_KEYS:
            v = getattr(self, k)
            # a zero witness budget is a real setting: it skips the search
            least = 0 if k == "witness_budget" else 1
            if v is not None and v < least:
                raise ValueError(f"{k} must be >= {least}, got {v}")

    def to_lines(self) -> list[str]:
        out = [f"qs = {','.join(str(q) for q in self.qs)}",
               f"seed = {self.seed}", f"jobs = {self.jobs}",
               f"output = {self.output}"]
        for k in _OVERRIDE_KEYS:
            v = getattr(self, k)
            if v is not None:
                out.append(f"{k} = {v}")
        return out

    def hash(self) -> str:
        # jobs/output are execution knobs: reports must hash the same for any
        # worker count or format
        skip = ("jobs = ", "output = ")
        lines = [ln for ln in self.to_lines() if not ln.startswith(skip)]
        return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()[:12]

    @staticmethod
    def from_file(path: str) -> "Config":
        cfg = Config()
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, val = (s.strip() for s in line.split("=", 1))
                where = f"{path}:{lineno}"
                if key == "qs":
                    cfg.qs = tuple(_config_int(where, key, v) for v in val.split(",") if v)
                elif key in ("seed", "jobs"):
                    setattr(cfg, key, _config_int(where, key, val))
                elif key == "output":
                    if val not in ("text", "structured"):
                        raise ValueError(f"{path}:{lineno}: output must be "
                                         f"text or structured")
                    cfg.output = val
                elif key in _OVERRIDE_KEYS:
                    setattr(cfg, key, _config_int(where, key, val))
                else:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        return cfg

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.to_lines()) + "\n")


def _config_int(where: str, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: {key} must be an integer, got {text!r}") from None


def _load_config(args) -> Config:
    cfg = Config.from_file(args.config) if args.config else Config()
    qlist = getattr(args, "qlist", None)
    if qlist:
        cfg.qs = tuple(qlist)
    for name in ("seed", "jobs", "output", *_OVERRIDE_KEYS):
        v = getattr(args, name, None)
        if v is not None:
            setattr(cfg, name, v)
    cfg.check()
    return cfg


def _suite_kwargs(fn, cfg: Config) -> dict:
    import inspect

    params = inspect.signature(fn).parameters
    kw = {}
    if "seed" in params:
        kw["seed"] = cfg.seed
    if "jobs" in params:
        kw["jobs"] = cfg.resolved_jobs()
    for name in _OVERRIDE_KEYS:
        v = getattr(cfg, name)
        if v is not None and name in params:
            kw[name] = v
    return kw


# ---------------------------------------------------------------------------
# output

def _emit_structured(record: dict, cfg: Config) -> None:
    record = dict(record)
    record["config_hash"] = cfg.hash()
    print(json.dumps(record, sort_keys=True, separators=(",", ":")))


def _emit_report_text(rep) -> None:
    tag = "PASS" if rep.passed else "FAIL"
    if getattr(rep, "status", "proved") == "experimental" and not rep.passed:
        tag = "EXP "
    if isinstance(rep, V.SolvabilityReport):
        wit = rep.witness if rep.witness else "not found within budget"
        print(f"[{tag}] solvable q={rep.q}: e*phi={rep.e_phi} k={rep.k} "
              f"depth-{rep.k} trees -> I: {rep.upper_ok} ({rep.trees_checked}); "
              f"depth-{rep.k - 1} witness: {wit} "
              f"({rep.witness_tried}/{rep.witness_budget} tried) "
              f"[{rep.wall_time:.2f}s]")
    else:
        qpart = f" q={rep.q}" if rep.q is not None else ""
        print(f"[{tag}] {rep.result}{qpart}: checks={rep.checks} "
              f"failures={len(rep.failures)} [{rep.wall_time:.2f}s]")
    for f in rep.failures[:10]:
        print(f"    {f}")
    if len(rep.failures) > 10:
        print(f"    ... {len(rep.failures) - 10} more")


def _emit(rep, cfg: Config) -> None:
    if cfg.output == "structured":
        rec = rep.to_record()
        rec["suite"] = rec.pop("result")
        _emit_structured(rec, cfg)
    else:
        _emit_report_text(rep)


# ---------------------------------------------------------------------------
# subcommands

def cmd_ring(args) -> int:
    try:
        f = parse_poly(args.expr)
    except PolyParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    val = f.sigma_valuation() if not f.has_t else None
    print(f"canonical: {f.render()}")
    print(f"augmentation: {f.augmentation()}")
    if val is None:
        print("sigma-valuation: n/a (contains t)")
    else:
        print(f"sigma-valuation: {val}")
    return EXIT_OK


def cmd_ideal(args) -> int:
    try:
        params = BurnsideParams.from_q(args.q)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    try:
        f = parse_poly(args.expr)
    except PolyParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if f.has_t:
        print("ideal membership is defined in R: drop the t terms", file=sys.stderr)
        return EXIT_USAGE

    ideal = cyclotomic_lattice(params)
    prod = cyclotomic_lattice(params, times_sigma=True)

    vec = f.to_truncated(params.D)
    print(f"q={params.q} (p={params.p}, e={params.e}), D={params.D}")
    print(f"member of I({params.q}): {ideal.member(vec)}")
    print(f"member of I({params.q})Sigma: {prod.member(vec)}")
    print(f"sigma-valuation: {f.sigma_valuation()}")
    return EXIT_OK


def cmd_order(args) -> int:
    try:
        word = parse_word(args.word)
        params = BurnsideParams.from_q(args.q)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    sctx = SContext.for_q(args.q)
    try:
        r = order_in_G(word, sctx)
    except ExponentLawViolation as exc:
        print(f"exponent law violated: {exc}")
        print(f"probed order: {exc.order if exc.order else f'> {exc.cap}'}")
        # broken law is a verification failure for primes, a reported outcome
        # for the experimental prime-power classes
        return EXIT_FAIL if params.e == 1 else EXIT_OK
    shown = "Infinite" if r.is_infinite else str(r.order)
    print(f"order({word}) over S({args.q})[t,t^-1] = {shown}")
    print(f"certificate: {r.certificate}")
    return EXIT_OK


def _run_suite(name: str, cfg: Config) -> list:
    entry = V.SUITES[name]
    fn = entry["fn"]
    kw = _suite_kwargs(fn, cfg)
    if entry["per_q"]:
        return [fn(q, **kw) for q in cfg.qs]
    return [fn(**kw)]


def cmd_verify(args, cfg: Config) -> int:
    if args.suite not in V.SUITES and args.suite != "all":
        print(f"unknown suite {args.suite!r}; known: "
              f"{', '.join(sorted(V.SUITES))} or all", file=sys.stderr)
        return EXIT_USAGE
    names = list(V.SUITES) if args.suite == "all" else [args.suite]
    rc = EXIT_OK
    for name in names:
        for rep in _run_suite(name, cfg):
            _emit(rep, cfg)
            proved = getattr(rep, "status", "proved") == "proved"
            if proved and not rep.passed:
                rc = EXIT_FAIL
    return rc


def cmd_report(args, cfg: Config) -> int:
    rc = EXIT_OK
    kw = _suite_kwargs(V.verify_solvability, cfg)
    if cfg.output == "text":
        print(f"{'q':>3} {'e*phi':>6} {'k':>3} {'depth-k trees':>14} "
              f"{'witness at k-1':>30}")
    for q in cfg.qs:
        rep = V.verify_solvability(q, **kw)
        if cfg.output == "structured":
            _emit_structured(rep.to_record(), cfg)
        else:
            wit = rep.witness if rep.witness else "not found within budget"
            mark = "all -> I" if rep.upper_ok else "FAILED"
            print(f"{rep.q:>3} {rep.e_phi:>6} {rep.k:>3} {mark:>14} {wit:>30}")
        if not rep.passed:
            rc = EXIT_FAIL
    return rc


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="burnmat",
        description="Exact verification of matrix-group exponent and "
                    "solvability bounds over cyclotomic quotient rings.")
    ap.add_argument("--config", help="key = value config file")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: all cores)")
    ap.add_argument("--output", choices=("text", "structured"), default=None)
    for name in _OVERRIDE_KEYS:
        ap.add_argument(f"--{name.replace('_', '-')}", dest=name, type=int,
                        default=None, help=argparse.SUPPRESS)

    qlist = dict(dest="qlist", type=lambda s: [int(v) for v in s.split(",")],
                 default=None, help="comma-separated q list")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("ring", help="canonical form, valuation, augmentation")
    p.add_argument("expr")
    p = sub.add_parser("ideal", help="membership in I(q) and I(q)Sigma")
    p.add_argument("--q", dest="q", type=int, required=True)
    p.add_argument("expr")
    p = sub.add_parser("order", help="order of a word over S(q)[t,t^-1]")
    p.add_argument("--q", dest="q", type=int, required=True)
    p.add_argument("word")
    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help=f"{', '.join(sorted(V.SUITES))}, or all")
    p.add_argument("--q", **qlist)
    p = sub.add_parser("report", help="solvability table over the q list")
    p.add_argument("--q", **qlist)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = _load_config(args)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE

    if args.cmd == "ring":
        return cmd_ring(args)
    if args.cmd == "ideal":
        return cmd_ideal(args)
    if args.cmd == "order":
        return cmd_order(args)
    if args.cmd == "verify":
        return cmd_verify(args, cfg)
    if args.cmd == "report":
        return cmd_report(args, cfg)
    ap.error(f"unknown command {args.cmd!r}")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
