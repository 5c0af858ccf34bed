"""Batch front end.

Three subcommands: `verify` (presentation soundness and the identity
certificate suite), `homology` (first-homology pipeline with cached
matrices and normal forms), and `certify-h2` (relation-module harvest
plus the second-homology certificate).  Each emits one JSON report with
a deterministic `body` (bit-identical across runs and thread counts,
hashed into meta.report_hash) and a non-normative `meta` (timings,
environment).

Exit codes: 0 success; 2 verification or internal-consistency failure;
3 generator bound not reached; 64 bad configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass

from . import __version__
from .homology import (
    ConsistencyError,
    _atomic_write_text,
    divisor_profile,
    five_term_data,
    h2_certificate,
)
from .identities import CertificationError, identity_suite
from .presentation import (
    eval_xword,
    gen_count,
    gersten_relators,
    reduced_relators,
)
from .reduction import FAMILY_TAGS, HarvestError, harvest, survivor_summary

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_BOUND = 3
EXIT_CONFIG = 64

_SUITE_TOKENS = {"lemmas", "presentations"}
_FILTER_TOKENS = set(FAMILY_TAGS) | _SUITE_TOKENS
_COEFFS = ("H", "Hdual")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    n: int
    coeff: str  # "H", "Hdual", "both"; verify ignores it
    suite: str  # verify only
    families: tuple[str, ...] | None
    threads: int
    cache_dir: str | None
    out: str | None

    @property
    def coeffs(self) -> tuple[str, ...]:
        return _COEFFS if self.coeff == "both" else (self.coeff,)

    @property
    def family_tags(self) -> tuple[str, ...] | None:
        """The F-tag subset of the filter (None = no filter given)."""
        if self.families is None:
            return None
        return tuple(t for t in self.families if t in FAMILY_TAGS)


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

    def common(sp: argparse.ArgumentParser, with_coeff: bool) -> None:
        sp.add_argument("--n", type=int, required=True, help="free group rank (>= 3)")
        if with_coeff:
            sp.add_argument(
                "--coeff",
                choices=("H", "Hdual", "both"),
                default="both",
                help="coefficient module: abelianization, its dual, or both",
            )
        sp.add_argument(
            "--families",
            default=None,
            help="comma-separated filter out of "
            + ",".join(sorted(_FILTER_TOKENS))
            + " (F-tags select harvest families; "
            "'lemmas'/'presentations' select verify suites)",
        )
        sp.add_argument("--threads", type=int, default=1, help="recorded in meta.threads; runs are single-process")
        sp.add_argument("--cache-dir", default=None, help="checkpoint directory for matrices and normal forms")
        sp.add_argument("--out", default=None, help="report path (default: stdout)")

    v = sub.add_parser("verify", help="presentation soundness and identity certificates")
    common(v, with_coeff=False)
    v.add_argument(
        "--suite",
        choices=("presentation", "identities", "all"),
        default="all",
    )
    h = sub.add_parser("homology", help="first-homology pipeline")
    common(h, with_coeff=True)
    c = sub.add_parser("certify-h2", help="relation harvest and second-homology certificate")
    common(c, with_coeff=True)
    return p


def parse_config(argv=None) -> RunConfig:
    args = build_parser().parse_args(argv)
    if args.n < 3:
        raise ConfigError(f"n must be >= 3, got {args.n}")
    families = None
    if args.families is not None:
        tokens = tuple(t.strip() for t in args.families.split(",") if t.strip())
        unknown = [t for t in tokens if t not in _FILTER_TOKENS]
        if unknown:
            raise ConfigError(f"unknown family tokens: {','.join(unknown)}")
        families = tokens
    if args.threads < 1:
        raise ConfigError("threads must be >= 1")
    return RunConfig(
        command=args.command,
        n=args.n,
        coeff=getattr(args, "coeff", "both"),
        suite=getattr(args, "suite", "all"),
        families=families,
        threads=args.threads,
        cache_dir=args.cache_dir,
        out=args.out,
    )


# -- verify ------------------------------------------------------------


def _verify_presentation(n: int) -> dict:
    fam_counts: dict[str, int] = {}
    failures = []
    for rel in reduced_relators(n):
        fam_counts[rel.family] = fam_counts.get(rel.family, 0) + 1
        if not eval_xword(n, rel.word).is_identity():
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
            if not eval_xword(n, word).is_identity()
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
    if cfg.families is not None:
        selected = {t for t in cfg.families if t in _SUITE_TOKENS}
        if selected:
            mapped = {"presentations": "presentation", "lemmas": "identities"}
            wanted &= {mapped[t] for t in selected}
    suites: dict = {}
    timings: dict = {}
    failed = False
    if "presentation" in wanted:
        t0 = time.monotonic()
        block = _verify_presentation(cfg.n)
        timings["presentation"] = round(time.monotonic() - t0, 3)
        failed |= bool(block["failures"])
        suites["presentation"] = block
    if "identities" in wanted:
        t0 = time.monotonic()
        block = _verify_identities(cfg.n)
        timings["identities"] = round(time.monotonic() - t0, 3)
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
    return {k: round(v, 3) for k, v in timings.items()}


def cmd_homology(cfg: RunConfig) -> tuple[int, dict, dict]:
    results: dict = {}
    timings: dict = {}
    for coeff in cfg.coeffs:
        t0 = time.monotonic()
        data = five_term_data(cfg.n, coeff, cache_dir=cfg.cache_dir)
        results[coeff] = _homology_block(data)
        timings[coeff] = {
            "total": round(time.monotonic() - t0, 3),
            "five_term": _rounded(data.timings),
        }
    body = {"command": "homology", "n": cfg.n, "results": results}
    return EXIT_OK, body, timings


# -- certify-h2 --------------------------------------------------------


def cmd_certify_h2(cfg: RunConfig) -> tuple[int, dict, dict]:
    results: dict = {}
    timings: dict = {}
    worst = EXIT_OK
    for coeff in cfg.coeffs:
        prefix = f"certify-h2 n={cfg.n} {coeff}"
        t0 = time.monotonic()
        pres = harvest(
            cfg.n,
            coeff,
            families=cfg.family_tags,
            progress=lambda msg: print(f"{prefix}: {msg}", file=sys.stderr),
        )
        t1 = time.monotonic()
        if cfg.cache_dir:
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
        t2 = time.monotonic()
        results[coeff] = {
            "homology": _homology_block(data),
            "harvest": {
                "families": cfg.family_tags if cfg.family_tags is not None else list(FAMILY_TAGS),
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
                "survivor_summary": survivor_summary(cfg.n, pres.survivor_indices()),
                "manifest": [
                    {
                        "tag": rep.tag,
                        "name": rep.name,
                        "instances": rep.instances,
                        "certified": rep.certified,
                        "rows": rep.rows,
                        "zero_rows": rep.zero_rows,
                        "unique_rows": rep.unique_rows,
                    }
                    for rep in pres.manifest
                ],
            },
            "certificate": {
                "ok": cert.ok,
                "reason": cert.reason,
                "bound": cert.bound,
                "argument": cert.argument,
                "transfer": cert.transfer_remark,
            },
        }
        timings[coeff] = {
            "harvest": round(t1 - t0, 3),
            **_rounded(pres.timings),
            "homology_and_certificate": round(t2 - t1, 3),
            "five_term": _rounded(data.timings),
            "eliminator": pres.stats,
        }
        if not cert.ok:
            worst = max(worst, EXIT_BOUND)
        print(
            f"{prefix}: bound {pres.bound}, "
            f"image rank {data.image_rank} -> "
            + ("certified" if cert.ok else f"NOT certified ({cert.reason})"),
            file=sys.stderr,
        )
    body = {"command": "certify-h2", "n": cfg.n, "results": results}
    return worst, body, timings


# -- entry point -------------------------------------------------------


def _emit(cfg: RunConfig, body: dict, timings: dict) -> None:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    doc = {
        "body": body,
        "meta": {
            "report_hash": hashlib.sha256(canonical.encode()).hexdigest(),
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
