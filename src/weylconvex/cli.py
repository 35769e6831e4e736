"""Command-line surface.

One command per process; every command that exits 0 or 1 emits a single
JSON report on stdout.  Exit codes: 0 success / property true, 1 property
false, 2 usage or budget error (JSON on stderr, nothing on stdout; or a
stdout that its reader closed before the whole report was written), 3
internal inconsistency (a verified theorem failed, or any other exception
escaped; either always means a bug).

Each `cmd_*` validates its arguments and returns its canonical parameters
with a function that computes (results, exit code); `_report` alone reads
the cache and stdout.  A report holds only what follows from its command,
so every run of one command prints the same bytes.  Reports are cached
under a content key of (schema version, engine version, a digest of the
package's source files, command, canonical parameters); a cache hit
returns those bytes, and any edit to the engine's code misses.  An entry
that is not a report with an integer exit code is recomputed and
overwritten.  The report is printed before it is stored, and a cache that
cannot be written is skipped, so it never costs the report.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import traceback
from typing import Dict, List, Optional, Tuple

from . import __version__
from .construction import find_convex_representative
from .convexity import analyze
from .coxeter import coxeter_element_count, verify_conjecture
from .errors import BudgetExceeded, InconsistencyError, InputError, NotInCellError
from .geometry import good_position_length, is_good_position
from .manifest import run_manifest
from .matrixgroup import (
    RationalField,
    build_cross_section,
    matrix_context,
    random_cell_point,
    random_section_point,
    sigma,
    transversality_check,
    xi,
)
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
from .weyl import DEFAULT_ENUMERATION_BUDGET, conjugacy_classes, fixed_roots, from_word

SCHEMA_VERSION = 2
LARGE_BUDGET = 10_000_000


def _type_and_delta(args):
    """The root system of --type and the automorphism --delta names in it."""
    rs = build_root_system(CartanType.parse(args.type))
    autos = diagram_automorphisms(rs)
    if args.delta in (None, "", "id"):
        return rs, autos[0]
    try:
        want = tuple(int(tok) - 1 for tok in args.delta.split(","))
    except ValueError:
        raise InputError(
            f"--delta must be 'id' or comma-separated simple labels, got {args.delta!r}"
        ) from None
    for auto in autos:
        if auto.simple_perm == want:
            return rs, auto
    raise InputError(
        f"{args.delta!r} is not a diagram automorphism of {rs.cartan_type}"
    )


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


def _cache_load(path: str) -> Optional[Tuple[bytes, int]]:
    """The stored report and its exit code; None unless the entry is one."""
    try:
        with open(path, "rb") as fh:
            payload = fh.read()
        report = json.loads(payload)
    except (OSError, ValueError):
        return None
    code = report.get("exit_code") if isinstance(report, dict) else None
    return (payload, code) if type(code) is int else None


def _cache_store(path: str, payload: bytes) -> None:
    """Replace the entry at path; a cache that cannot be written is skipped."""
    cache_dir = os.path.dirname(path)
    tmp = None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _report(args) -> int:
    """Run one command: answer from the cache or compute, print, then store."""
    params, compute = args.func(args)
    # Caching is opt-in: --cache-dir, else WEYLCONVEX_CACHE_DIR.
    cache_dir = None if args.no_cache else args.cache_dir or os.environ.get("WEYLCONVEX_CACHE_DIR")
    path = cache_dir and os.path.join(cache_dir, _cache_key(args.command, params) + ".json")
    cached = _cache_load(path) if path else None
    if cached is not None:
        payload, code = cached
        sys.stdout.buffer.write(payload)
        return code
    results, code = compute()
    report = {
        "schema_version": SCHEMA_VERSION,
        "engine_version": __version__,
        "command": args.command,
        "params": params,
        "results": results,
        "exit_code": code,
    }
    # The bytes of json.dumps(report, sort_keys=True, indent=2), written a
    # chunk at a time: json.dumps would hold every chunk of a large report
    # at once before joining them.  Only the cache needs them all.
    out = io.BytesIO() if path else sys.stdout.buffer
    for chunk in json.JSONEncoder(sort_keys=True, indent=2).iterencode(report):
        out.write(chunk.encode())
    out.write(b"\n")
    if path:
        payload = out.getvalue()
        sys.stdout.buffer.write(payload)
        _cache_store(path, payload)
    return code


def cmd_convex_check(args):
    params = {
        "type": args.type,
        "word": args.word,
        "delta": args.delta or "id",
        "twist": args.twist,
    }
    # Only a strict run changes the report, so only it joins the cache key.
    if args.strict:
        params["strict"] = True

    def compute():
        rs, delta = _type_and_delta(args)
        x = from_word(rs, delta, parse_word(args.word), args.twist)
        rep = analyze(x, strict=args.strict)
        return convexity_dict(rep, args.strict), 0 if rep.convex else 1

    return params, compute


def cmd_reps(args):
    params = {
        "type": args.type,
        "delta": args.delta or "id",
        "twist": args.twist,
        "allow_large": bool(args.allow_large),
        "seed": args.seed,
    }

    def compute():
        rs, delta = _type_and_delta(args)
        budget = LARGE_BUDGET if args.allow_large else DEFAULT_ENUMERATION_BUDGET
        rows: List[Dict] = []
        for idx, cls in enumerate(conjugacy_classes(rs, delta, args.twist, budget)):
            res = find_convex_representative(cls, seed=args.seed)
            y = res.representative
            rows.append(
                {
                    "class_id": idx,
                    "size": len(cls),
                    "min_length": cls.min_length,
                    "representative": word_str(y.word()),
                    "representative_length": y.length(),
                    "convex": res.report.convex,
                    "phi_equals_fixed": res.report.phi_x == fixed_roots(y),
                }
            )
        # find_convex_representative returns only a member that is convex
        # with phi_x equal to its fixed roots, and raises otherwise, so
        # every row holds.
        return rows, 0

    return params, compute


def cmd_conjecture(args):
    params = {
        "type": args.type,
        "delta": args.delta or "id",
        "allow_large": bool(args.allow_large),
    }

    def compute():
        rs, delta = _type_and_delta(args)
        # The sweep's cost is one analysis per delta-Coxeter element, counted
        # here before any element is built.
        count = coxeter_element_count(rs, delta)
        budget = LARGE_BUDGET if args.allow_large else DEFAULT_ENUMERATION_BUDGET
        if count > budget:
            need = "exceeds the limit" if args.allow_large else "needs --allow-large above"
            raise BudgetExceeded(
                f"{rs.cartan_type} has {count} delta-Coxeter elements; {need} {budget}"
            )
        report = verify_conjecture(rs, delta)
        return coxeter_dict(report), 0 if report.conjecture_status == "pass" else 1

    return params, compute


def cmd_cross_section(args):
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

    def compute():
        ctx = matrix_context(args.n, args.field)
        if args.rank_checks and not isinstance(ctx.field, RationalField):
            raise InputError("--rank-checks requires --field rational")
        x = from_word(ctx.rs, None, parse_word(args.word))
        data = build_cross_section(ctx, x)
        rng = random.Random(args.seed)
        ok_roundtrips = 0
        for _ in range(args.trials):
            p = random_cell_point(data, rng)
            try:
                ok_roundtrips += sigma(data, xi(data, p)) == p
            except NotInCellError:
                pass  # a failed roundtrip, which the report counts
        rank_ok = 0
        for _ in range(args.rank_checks):
            if transversality_check(data, random_section_point(data, rng)):
                rank_ok += 1
        results = {
            "quasi_convex": data.report.quasi_convex,
            "convex": data.report.convex,
            "dims": data.dims(),
            "roundtrips_ok": ok_roundtrips,
            "roundtrips_total": args.trials,
            "rank_checks_ok": rank_ok,
            "rank_checks_total": args.rank_checks,
        }
        ok = ok_roundtrips == args.trials and rank_ok == args.rank_checks
        return results, 0 if ok else 1

    return params, compute


def cmd_good_position(args):
    params = {"type": args.type, "word": args.word, "sequence": args.sequence}

    def compute():
        rs = build_root_system(CartanType.parse(args.type))
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
        return results, 0 if cert is not None else 1

    return params, compute


def cmd_reproduce(args):
    def compute():
        items = run_manifest()
        return items, 0 if all(item["passed"] for item in items) else 1

    return {}, compute


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
    p.add_argument("--strict", action="store_true", help="also list audit_flags, the level-one pairs whose sum lies in phi_x")
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
        code = _report(build_parser().parse_args(argv))
        # A closed stdout shows up here at the latest, not at exit.
        sys.stdout.flush()
        return code
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
    except BrokenPipeError:
        # The reader closed stdout before the whole report was written (as
        # `head` does): a usage error, not a fault of the engine.  Stdout
        # goes to the null device, so the interpreter's flush at exit finds
        # no closed pipe to report.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(json.dumps({"error": "stdout was closed before the report was written"}), file=sys.stderr)
        return 2
    except (InputError, BudgetExceeded) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(json.dumps({"inconsistency": str(exc)}), file=sys.stderr)
        return 3
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
