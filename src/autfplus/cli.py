"""Batch front end.

Three subcommands: `verify` (presentation soundness and the identity
certificate suite), `homology` (first-homology pipeline, whose matrices
and normal forms can be written out as artefacts), and `certify-h2`
(relation-module harvest plus the second-homology certificate).  Each
emits one JSON report with a deterministic `body` (bit-identical across
runs and thread counts, hashed into meta.report_hash) and a
non-normative `meta` (timings, environment).

Exit codes: 0 success; 2 verification or internal-consistency failure;
3 generator bound not reached; 64 bad configuration, including an output
path that cannot be written (checked before any work).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import NamedTuple

from . import __version__
from .homology import (
    CERT_ARGUMENT,
    TRANSFER_REMARK,
    ConsistencyError,
    _atomic_write_text,
    divisor_profile,
    five_term_data,
    h2_certificate,
    sha256,
)
from .identities import CertificationError, identity_suite
from .presentation import (
    gen_count,
    gersten_relators,
    is_relator_elt,
    reduced_relators,
)
from .reduction import FAMILY_TAGS, HarvestError, harvest, peak_rss_kib, survivor_summary

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_BOUND = 3
EXIT_CONFIG = 64

_COEFFS = ("H", "Hdual")


class ConfigError(ValueError):
    pass


class RunConfig(NamedTuple):
    command: str
    n: int
    coeff: str  # "H", "Hdual", "both"; verify ignores it
    suite: str  # verify only
    families: tuple[str, ...] | None  # certify-h2 only: harvest F-tags, None = all
    threads: int
    cache_dir: str | None  # homology and certify-h2 only
    out: str | None

    @property
    def coeffs(self) -> tuple[str, ...]:
        return _COEFFS if self.coeff == "both" else (self.coeff,)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; config problems must exit 64 instead
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> _Parser:
    p = _Parser(
        prog="autfplus",
        description="Exact certificates for low homology of the special "
        "automorphism groups of free groups over Z[1/2].",
    )
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, help: str, modules: bool) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--n", type=int, required=True, help="free group rank (>= 3)")
        if modules:
            sp.add_argument(
                "--coeff",
                choices=("H", "Hdual", "both"),
                default="both",
                help="coefficient module: abelianization, its dual, or both",
            )
            sp.add_argument(
                "--cache-dir", default=None, help="artefact directory for matrices and normal forms, never read"
            )
        sp.add_argument("--threads", type=int, default=1, help="recorded in meta.threads; runs are single-process")
        sp.add_argument("--out", default=None, help="report path (default: stdout)")
        return sp

    v = command("verify", "presentation soundness and identity certificates", modules=False)
    v.add_argument(
        "--suite",
        choices=("presentation", "identities", "all"),
        default="all",
    )
    command("homology", "first-homology pipeline", modules=True)
    c = command("certify-h2", "relation harvest and second-homology certificate", modules=True)
    c.add_argument(
        "--families",
        default=None,
        help="comma-separated harvest families out of " + ",".join(FAMILY_TAGS) + " (default: all)",
    )
    return p


def _unwritable(path: str) -> str | None:
    """Why no directory can be made, or file written, at path, if none can:
    the nearest existing one of path and its ancestors is not a directory,
    or is one this process may not write to and search."""
    p = os.path.abspath(path)
    while not os.path.exists(p):
        p = os.path.dirname(p)
    if not os.path.isdir(p):
        return f"{p} exists and is not a directory"
    if not os.access(p, os.W_OK | os.X_OK):
        return f"{p} is a directory this process cannot write to"
    return None


def parse_config(argv=None) -> RunConfig:
    args = build_parser().parse_args(argv)
    if args.n < 3:
        raise ConfigError(f"n must be >= 3, got {args.n}")
    families = getattr(args, "families", None)
    if families is not None:
        families = tuple(t.strip() for t in families.split(",") if t.strip())
        unknown = [t for t in families if t not in FAMILY_TAGS]
        if unknown:
            raise ConfigError(f"unknown family tags: {','.join(unknown)}")
        repeated = sorted({t for t in families if families.count(t) > 1})
        if repeated:
            raise ConfigError(f"repeated family tags: {','.join(repeated)}")
        if not families:
            raise ConfigError("--families names no family")
    if args.threads < 1:
        raise ConfigError("threads must be >= 1")
    # paths the run would fail to write only after all its work
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir == "":
        raise ConfigError("--cache-dir is empty: it must name a directory")
    if cache_dir is not None and (bad := _unwritable(cache_dir)):
        raise ConfigError(f"--cache-dir {cache_dir}: {bad}")
    if args.out == "":
        raise ConfigError("--out is empty: it must name a file")
    if args.out and os.path.isdir(args.out):
        raise ConfigError(f"--out {args.out} is a directory")
    if args.out and (bad := _unwritable(os.path.dirname(os.path.abspath(args.out)))):
        raise ConfigError(f"--out {args.out}: {bad}")
    return RunConfig(
        command=args.command,
        n=args.n,
        coeff=getattr(args, "coeff", "both"),
        suite=getattr(args, "suite", "all"),
        families=families,
        threads=args.threads,
        cache_dir=cache_dir,
        out=args.out,
    )


# -- verify ------------------------------------------------------------


def _verify_presentation(n: int) -> dict:
    fam_counts: dict[str, int] = {}
    failures = []
    for rel in reduced_relators(n):
        fam_counts[rel.family] = fam_counts.get(rel.family, 0) + 1
        if not is_relator_elt(n, rel.word):
            failures.append(rel.label)
    block = {
        "relators": sum(fam_counts.values()),
        "families": dict(sorted(fam_counts.items())),
        "failures": failures,
    }
    if n <= 5:
        gersten = gersten_relators(n)
        g_bad = [
            label
            for label, word in gersten
            if not is_relator_elt(n, word)
        ]
        block["gersten"] = {
            "relators": len(gersten),
            "failures": g_bad,
        }
        failures.extend(g_bad)
    return block


def _verify_identities(n: int) -> dict:
    counts: dict[str, list[int]] = {}
    failures = []
    for entry in identity_suite(n):
        slot = counts.setdefault(entry.family, [0, 0])
        if entry.certificate.verified:
            slot[0] += 1
        else:
            slot[1] += 1
            if len(failures) < 10:
                failures.append(
                    {
                        "family": entry.family,
                        "instance": entry.instance,
                        "residual_length": len(entry.certificate.residual),
                    }
                )
    return {
        "families": {k: {"verified": v, "failed": f} for k, (v, f) in sorted(counts.items())},
        "failures": failures,
    }


def cmd_verify(cfg: RunConfig) -> tuple[int, dict, dict]:
    wanted = {"presentation", "identities"} if cfg.suite == "all" else {cfg.suite}
    suites: dict = {}
    timings: dict = {}
    failed = False
    if "presentation" in wanted:
        t0 = time.perf_counter()
        block = _verify_presentation(cfg.n)
        timings["presentation"] = round(time.perf_counter() - t0, 3)
        failed |= bool(block["failures"])
        suites["presentation"] = block
    if "identities" in wanted:
        t0 = time.perf_counter()
        block = _verify_identities(cfg.n)
        timings["identities"] = round(time.perf_counter() - t0, 3)
        failed |= any(v["failed"] for v in block["families"].values())
        suites["identities"] = block
    body = {"command": "verify", "n": cfg.n, "suites": suites}
    return (EXIT_VERIFY if failed else EXIT_OK), body, timings


# -- homology ----------------------------------------------------------


def _profile_list(divisors) -> list[list[int]]:
    return [[v2, odd, count] for (v2, odd), count in divisor_profile(divisors)]


def _homology_block(data) -> dict:
    return {
        "symbols": gen_count(data.n),
        "relators": data.relator_count,
        "d1": {"rows": data.d1.nrows, "cols": data.d1.ncols, "nnz": data.d1.nnz()},
        "phi": {"rows": data.phi.nrows, "cols": data.phi.ncols, "nnz": data.phi.nnz()},
        "d1_rank": data.d1_rank,
        "kernel_rank": data.kernel_rank,
        "image_rank": data.image_rank,
        "image_divisors": _profile_list(data.image_divisors),
        "h1": data.h1.describe(),
        "modp_ranks": {str(p): r for p, r in sorted(data.modp_ranks.items())},
    }


def _rounded(timings: dict) -> dict:
    return {k: _rounded(v) if isinstance(v, dict) else round(v, 3) for k, v in timings.items()}


def _homology_module(cfg: RunConfig, coeff: str) -> tuple[dict, dict]:
    """One coefficient module's report block and timings.  Its five-term
    data, d1 and phi included, ends with this call."""
    t0 = time.perf_counter()
    data = five_term_data(cfg.n, coeff, cache_dir=cfg.cache_dir)
    block = _homology_block(data)
    timings = {
        "total": round(time.perf_counter() - t0, 3),
        "five_term": _rounded(data.timings),
        "peak_rss_kib": {"five_term": peak_rss_kib()},
    }
    return block, timings


def cmd_homology(cfg: RunConfig) -> tuple[int, dict, dict]:
    results: dict = {}
    timings: dict = {}
    for coeff in cfg.coeffs:
        results[coeff], timings[coeff] = _homology_module(cfg, coeff)
    body = {"command": "homology", "n": cfg.n, "results": results}
    return EXIT_OK, body, timings


# -- certify-h2 --------------------------------------------------------


def _certify_module(cfg: RunConfig, coeff: str) -> tuple[dict, dict, bool]:
    """Harvest, homology and H2 certificate of one coefficient module.

    Returns the module's report block, its timings and whether its bound is
    certified.  The presentation, five-term data and certificate end with
    this call, so the next module's harvest starts without them.
    """
    prefix = f"certify-h2 n={cfg.n} {coeff}"
    t0 = time.perf_counter()
    pres = harvest(
        cfg.n,
        coeff,
        families=cfg.families,
        progress=lambda msg: print(f"{prefix}: {msg}", file=sys.stderr),
    )
    t1 = time.perf_counter()
    if cfg.cache_dir is not None:
        _atomic_write_text(
            os.path.join(cfg.cache_dir, f"relations-n{cfg.n}-{coeff}.mat"),
            pres.matrix.dump(),
        )
    data = five_term_data(cfg.n, coeff, cache_dir=cfg.cache_dir)
    if data.image_rank > pres.bound:
        raise ConsistencyError(
            f"harvest bound {pres.bound} below the image L-rank "
            f"{data.image_rank}: a certified relation row must be wrong"
        )
    cert = h2_certificate(cfg.n, coeff, pres.bound, data=data)
    t2 = time.perf_counter()
    result = {
        "homology": _homology_block(data),
        "harvest": {
            "families": cfg.families if cfg.families is not None else list(FAMILY_TAGS),
            "generators": pres.generator_count,
            "matrix": {
                "rows": pres.matrix.nrows,
                "cols": pres.matrix.ncols,
                "nnz": pres.matrix.nnz(),
            },
            "pivots": pres.pivot_count,
            "residual_rows": pres.residual_rows,
            "residual_divisors": _profile_list(pres.residual_divisors),
            "bound": pres.bound,
            "module": pres.module.describe(),
            "survivors": len(pres.survivors),
            "survivor_summary": survivor_summary(cfg.n, pres.survivors),
            "manifest": [rep._asdict() for rep in pres.manifest],
        },
        "certificate": {
            "ok": cert.ok,
            "reason": cert.reason,
            "bound": cert.bound,
            "argument": CERT_ARGUMENT,
            "transfer": TRANSFER_REMARK,
        },
    }
    timings = {
        "harvest": round(t1 - t0, 3),
        **_rounded(pres.timings),
        "homology_and_certificate": round(t2 - t1, 3),
        "five_term": _rounded(data.timings),
        "eliminator": pres.stats,
        "peak_rss_kib": pres.peak_rss_kib,
    }
    print(
        f"{prefix}: bound {pres.bound}, "
        f"image rank {data.image_rank} -> "
        + ("certified" if cert.ok else f"NOT certified ({cert.reason})"),
        file=sys.stderr,
    )
    return result, timings, cert.ok


def cmd_certify_h2(cfg: RunConfig) -> tuple[int, dict, dict]:
    results: dict = {}
    timings: dict = {}
    worst = EXIT_OK
    for coeff in cfg.coeffs:
        results[coeff], timings[coeff], ok = _certify_module(cfg, coeff)
        if not ok:
            worst = max(worst, EXIT_BOUND)
    body = {"command": "certify-h2", "n": cfg.n, "results": results}
    return worst, body, timings


# -- entry point -------------------------------------------------------


def _emit(cfg: RunConfig, body: dict, timings: dict) -> None:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    doc = {
        "body": body,
        "meta": {
            "report_hash": sha256(canonical.encode()).hexdigest(),
            "threads": cfg.threads,
            "timings": timings,
            "version": __version__,
        },
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        _atomic_write_text(cfg.out, text)
    else:
        sys.stdout.write(text)


_COMMANDS = {
    "verify": cmd_verify,
    "homology": cmd_homology,
    "certify-h2": cmd_certify_h2,
}


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        code, body, timings = _COMMANDS[cfg.command](cfg)
    except (ConsistencyError, HarvestError, CertificationError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    _emit(cfg, body, timings)
    return code


if __name__ == "__main__":
    sys.exit(main())
