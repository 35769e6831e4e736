"""Command-line surface.

One command per process; every command emits a single JSON report on
stdout.  Exit codes: 0 success / property true, 1 property false, 2 usage
or budget error, 3 internal inconsistency (a verified theorem failed, or
any other exception escaped; either always means a bug).

Reports are cached under a content key of (schema version, engine
version, a digest of the package's source files, command, canonical
parameters); a cache hit returns the stored bytes unchanged, and any edit
to the engine's code misses.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional

from . import __version__
from .errors import BudgetExceeded, InconsistencyError, InputError, NotInCellError
from .reports import (
    angle_str,
    certificate_dict,
    convexity_dict,
    coxeter_dict,
    parse_sequence,
    parse_word,
    word_str,
)
from .roots import CartanType, build_root_system, diagram_automorphisms

SCHEMA_VERSION = 1
LARGE_BUDGET = 10_000_000


def _resolve_delta(rs, spec: Optional[str]):
    autos = diagram_automorphisms(rs)
    if spec in (None, "", "id"):
        return autos[0]
    try:
        want = tuple(int(tok) - 1 for tok in spec.split(","))
    except ValueError:
        raise InputError(
            f"--delta must be 'id' or comma-separated simple labels, got {spec!r}"
        ) from None
    for auto in autos:
        if auto.simple_perm == want:
            return auto
    raise InputError(
        f"{spec!r} is not a diagram automorphism of {rs.cartan_type}"
    )


def _cache_dir(args) -> Optional[str]:
    if getattr(args, "no_cache", False):
        return None
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    env = os.environ.get("WEYLCONVEX_CACHE_DIR")
    if env:
        return env
    return None  # caching is opt-in


@functools.lru_cache(maxsize=None)
def _source_digest() -> str:
    """SHA-256 over the names and bytes of the package's .py files."""
    digest = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


def _cache_key(command: str, params: Dict) -> str:
    canonical = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "engine": __version__,
            "source": _source_digest(),
            "command": command,
            "params": params,
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _cache_load(cache_dir: str, key: str) -> Optional[bytes]:
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _cache_store(cache_dir: str, key: str, payload: bytes) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, key + ".json")
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _emit(command: str, params: Dict, results, exit_code: int, args, started: float) -> int:
    report = {
        "schema_version": SCHEMA_VERSION,
        "engine_version": __version__,
        "command": command,
        "params": params,
        "results": results,
        "exit_code": exit_code,
        "wall_time_s": round(time.time() - started, 6),
    }
    payload = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    cache_dir = _cache_dir(args)
    if cache_dir:
        _cache_store(cache_dir, _cache_key(command, params), payload)
    sys.stdout.buffer.write(payload)
    return exit_code


def _maybe_cached(command: str, params: Dict, args) -> Optional[int]:
    cache_dir = _cache_dir(args)
    cached = _cache_load(cache_dir, _cache_key(command, params)) if cache_dir else None
    if cached is None:
        return None
    sys.stdout.buffer.write(cached)
    return json.loads(cached)["exit_code"]


def cmd_convex_check(args) -> int:
    started = time.time()
    params = {
        "type": args.type,
        "word": args.word,
        "delta": args.delta or "id",
        "twist": args.twist,
    }
    hit = _maybe_cached("convex-check", params, args)
    if hit is not None:
        return hit
    rs = build_root_system(CartanType.parse(args.type))
    delta = _resolve_delta(rs, args.delta)
    from .convexity import analyze
    from .weyl import from_word

    x = from_word(rs, delta, parse_word(args.word), args.twist)
    rep = analyze(x, strict=args.strict)
    code = 0 if rep.convex else 1
    return _emit("convex-check", params, convexity_dict(rep), code, args, started)


def cmd_reps(args) -> int:
    started = time.time()
    params = {
        "type": args.type,
        "delta": args.delta or "id",
        "twist": args.twist,
        "allow_large": bool(args.allow_large),
        "seed": args.seed,
    }
    hit = _maybe_cached("reps", params, args)
    if hit is not None:
        return hit
    rs = build_root_system(CartanType.parse(args.type))
    delta = _resolve_delta(rs, args.delta)
    from .construction import find_convex_representative
    from .convexity import phi_of
    from .weyl import DEFAULT_ENUMERATION_BUDGET, conjugacy_classes, fixed_roots

    budget = LARGE_BUDGET if args.allow_large else DEFAULT_ENUMERATION_BUDGET
    classes = conjugacy_classes(rs, delta, args.twist, budget)
    rows: List[Dict] = []
    all_ok = True
    for idx, cls in enumerate(classes):
        res = find_convex_representative(cls, seed=args.seed)
        y = res.representative
        verified = res.report.convex and phi_of(y) == fixed_roots(y)
        all_ok = all_ok and verified
        rows.append(
            {
                "class_id": idx,
                "size": len(cls),
                "min_length": cls.min_length,
                "representative": word_str(y.word()),
                "representative_length": y.length(),
                "method": res.method,
                "convex": res.report.convex,
                "phi_equals_fixed": phi_of(y) == fixed_roots(y),
            }
        )
    code = 0 if all_ok else 3
    return _emit("reps", params, rows, code, args, started)


def cmd_conjecture(args) -> int:
    started = time.time()
    params = {
        "type": args.type,
        "delta": args.delta or "id",
        "allow_large": bool(args.allow_large),
    }
    hit = _maybe_cached("conjecture", params, args)
    if hit is not None:
        return hit
    rs = build_root_system(CartanType.parse(args.type))
    delta = _resolve_delta(rs, args.delta)
    from .coxeter import coxeter_element_count, verify_conjecture
    from .weyl import DEFAULT_ENUMERATION_BUDGET

    # The sweep's cost is one analysis per delta-Coxeter element, counted
    # here before any element is built.
    count = coxeter_element_count(rs, delta)
    budget = LARGE_BUDGET if args.allow_large else DEFAULT_ENUMERATION_BUDGET
    if count > budget:
        need = "exceeds the limit" if args.allow_large else "needs --allow-large above"
        raise BudgetExceeded(
            f"{rs.cartan_type} has {count} delta-Coxeter elements; {need} {budget}",
            budget,
        )
    report = verify_conjecture(rs, delta)
    code = 0 if report.conjecture_status == "pass" else 1
    return _emit("conjecture", params, coxeter_dict(report), code, args, started)


def cmd_cross_section(args) -> int:
    started = time.time()
    if args.type.upper() != "A":
        raise InputError("the matrix realization covers type A only")
    for flag, value in (("--trials", args.trials), ("--rank-checks", args.rank_checks)):
        if value < 0:
            raise InputError(f"{flag} must be non-negative, got {value}")
    params = {
        "type": "A",
        "n": args.n,
        "word": args.word,
        "field": str(args.field),
        "trials": args.trials,
        "seed": args.seed,
        "rank_checks": args.rank_checks,
    }
    hit = _maybe_cached("cross-section", params, args)
    if hit is not None:
        return hit
    from .convexity import analyze
    from .matrixgroup import (
        build_cross_section,
        matrix_context,
        random_cell_point,
        random_section_point,
        sigma,
        transversality_check,
        xi,
    )
    from .weyl import from_word

    ctx = matrix_context(args.n, args.field)
    x = from_word(ctx.rs, None, parse_word(args.word))
    rep = analyze(x)
    data = build_cross_section(ctx, x)
    rng = random.Random(args.seed)
    ok_roundtrips = 0
    for _ in range(args.trials):
        p = random_cell_point(data, rng)
        if sigma(data, xi(data, p)) == p:
            ok_roundtrips += 1
    rank_ok = 0
    if args.rank_checks:
        from .matrixgroup import RationalField

        if not isinstance(ctx.field, RationalField):
            raise InputError("--rank-checks requires --field rational")
        for _ in range(args.rank_checks):
            if transversality_check(data, random_section_point(data, rng)):
                rank_ok += 1
    results = {
        "quasi_convex": rep.quasi_convex,
        "convex": rep.convex,
        "dims": data.dims(),
        "roundtrips_ok": ok_roundtrips,
        "roundtrips_total": args.trials,
        "rank_checks_ok": rank_ok,
        "rank_checks_total": args.rank_checks,
    }
    code = 0 if ok_roundtrips == args.trials and rank_ok == args.rank_checks else 1
    return _emit("cross-section", params, results, code, args, started)


def cmd_good_position(args) -> int:
    started = time.time()
    params = {"type": args.type, "word": args.word, "sequence": args.sequence}
    hit = _maybe_cached("good-position", params, args)
    if hit is not None:
        return hit
    rs = build_root_system(CartanType.parse(args.type))
    from .geometry import good_position_length, is_good_position
    from .weyl import from_word

    x = from_word(rs, None, parse_word(args.word))
    sequence = parse_sequence(args.sequence)
    cert = is_good_position(x, sequence)
    results = {
        "word": word_str(x.word()),
        "length": x.length(),
        "sequence": [angle_str(a) for a in sequence],
        "good_position": cert is not None,
    }
    if cert is not None:
        results["certificate"] = certificate_dict(cert)
        results["length_formula"] = good_position_length(cert)
    code = 0 if cert is not None else 1
    return _emit("good-position", params, results, code, args, started)


def cmd_reproduce(args) -> int:
    started = time.time()
    params = {}
    hit = _maybe_cached("reproduce", params, args)
    if hit is not None:
        return hit
    from .manifest import run_manifest

    items = run_manifest()
    code = 0 if all(item["passed"] for item in items) else 1
    return _emit("reproduce", params, items, code, args, started)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so they leave as JSON with exit 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weylconvex",
        description="Exact convexity analysis of (twisted) Weyl group elements "
        "and matrix cross-sections.",
    )
    parser.add_argument("--cache-dir", help="report cache directory")
    parser.add_argument("--no-cache", action="store_true", help="bypass the cache")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convex-check", help="analyze one element")
    p.add_argument("--type", required=True, help="Cartan type, e.g. A4")
    p.add_argument("--word", required=True, help="1-based simple reflections, e.g. 2,3,4,1,2,3")
    p.add_argument("--delta", help="diagram automorphism: 'id' or image of simples, e.g. 3,2,1")
    p.add_argument("--twist", type=int, default=0, help="power of the twist")
    p.add_argument("--strict", action="store_true", help="audit infinite-level triples")
    p.set_defaults(func=cmd_convex_check)

    p = sub.add_parser("reps", help="convex representative per conjugacy class")
    p.add_argument("--type", required=True)
    p.add_argument("--delta")
    p.add_argument("--twist", type=int, default=0)
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reps)

    p = sub.add_parser("conjecture", help="convexity of all twisted Coxeter elements")
    p.add_argument("--type", required=True)
    p.add_argument("--delta")
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("cross-section", help="randomized section roundtrips in GL_n")
    p.add_argument("--type", default="A", help="root-system family; only A is realized")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--field", default="rational", help="'rational' or a prime")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rank-checks", type=int, default=0)
    p.set_defaults(func=cmd_cross_section)

    p = sub.add_parser("good-position", help="test one element against a sequence")
    p.add_argument("--type", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--sequence", required=True, help="e.g. pi/2,pi or 2pi/5,4pi/5")
    p.set_defaults(func=cmd_good_position)

    p = sub.add_parser("reproduce", help="run the worked-example manifest")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
    except (InputError, BudgetExceeded) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except (InconsistencyError,) as exc:
        print(json.dumps({"inconsistency": str(exc)}), file=sys.stderr)
        return 3
    except NotInCellError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    except Exception as exc:
        # Any other exception is a bug too: report it as an inconsistency,
        # naming where it was raised, instead of a traceback.
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        print(json.dumps({
            "inconsistency": f"{type(exc).__name__}: {exc}",
            "raised_at": f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}",
        }), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
