"""Run one autfplus CLI command with timers around its layer boundaries.

    python3 perfbench/traced.py TRACE_OUT CLI_ARGS...

run.py starts this script as a fresh process, with ``src`` on PYTHONPATH,
so the package's module-level caches start empty as they do for a user.
It replaces the module-level functions the CLI path looks up at call time
with timing wrappers, then calls ``autfplus.cli.main(CLI_ARGS)`` itself.
The report, its checks and the exit code are therefore the CLI's own, and
a change to the orchestration code (``harvest``, ``_collect_rows``,
``five_term_data``, ``cmd_*``) shows in the per-layer numbers.

Two kinds of timer are used:

- spans (name, start, end, parent) around the coarse calls: the soundness
  check, the identity suite, each harvest, each ``five_term_data`` and its
  stages, each H2 certificate;
- summed timers around hot calls (every ``next()`` of a certificate stream,
  ``relation_from_null``, ``RowStore.add_row``, the eliminator, the
  presentation builders), which add their time to a key and to the time
  covered inside the open span, without a record per call.

Spans are kept in memory and written to TRACE_OUT when the run ends,
together with the per-layer metrics derived from them.  Layers are the
package modules: presentation, identities, reduction, homology and cli;
``words`` and ``nielsen`` have no boundary of their own and show inside
identities and presentation.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # the root span starts before the package import

import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from autfplus import cli, homology, identities, presentation, reduction  # noqa: E402

clock = time.perf_counter
COEFFS = ("H", "Hdual")
SUITE_NAMES = tuple(name for name, _ in identities.SUITE_FAMILIES)
STAGES = ("assemble", "chain_check", "d1_snf", "echelon", "image_snf", "modp")
PRESENTATION_BUILDERS = ("reduced_relators", "relator_index", "gen_symbols")
# Counters every command reports; those a command never touches stay 0.
COUNTS = (
    "presentation.relators",
    "identities.suite_instances",
    "identities.harvest_certificates",
    "reduction.fold_factors",
    "reduction.rows",
    "reduction.rows_unique",
    "reduction.rows_dup",
    "reduction.rows_zero",
    "reduction.pivots",
    "reduction.residual_rows",
    "reduction.bound",
    "homology.phi_nnz",
    "homology.echelon_cols",
    "homology.snf_max_bits",
)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Spans under one root span named ``cli``, summed timers and counts."""

    def __init__(self, t0: float):
        self.spans: list[dict] = [
            {"id": 0, "name": "cli", "parent": None, "start": t0, "end": None, "attrs": {}}
        ]
        self.open = [0]
        self.acc: dict[str, float] = defaultdict(float)  # summed timers by key
        self.covered: dict[int, float] = defaultdict(float)  # summed time inside each span
        self.active: list[str] = []  # keys of the summed timers now running
        self.counts = dict.fromkeys(COUNTS, 0)
        self.rss: dict[str, float] = {}  # first high-water sample per stage
        self.stores: list = []  # the RowStore of the harvest in progress
        self.snfs: list = []  # SNF results, scanned for snf_max_bits after the run
        self.coeff = ""  # module of the harvest or five_term_data call in progress

    def span(self, name_of, fn):
        """Wrap fn so that each call is a span named name_of(*args)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {
                "id": len(self.spans),
                "name": name_of(*args),
                "parent": self.open[-1],
                "start": clock(),
                "end": None,
                "attrs": {},
            }
            self.spans.append(rec)
            self.open.append(rec["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                rec["end"] = clock()
                rec["attrs"]["rss_mb"] = _rss_mb()
                self.open.pop()

        return wrapper

    def _add(self, key: str, dt: float) -> None:
        self.acc[key] += dt
        if not self.active:
            self.covered[self.open[-1]] += dt

    def summed(self, key_of, fn):
        """Wrap fn so that its time adds to key_of(*args).  A call nested in
        a call to the same key is not counted twice."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = key_of(*args)
            if key in self.active:
                return fn(*args, **kwargs)
            self.active.append(key)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.active.pop()
                self._add(key, dt)

        return wrapper

    def stream(self, key: str, it, on_item):
        """Yield from it, adding the time of each next() to key."""
        while True:
            self.active.append(key)
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                dt = clock() - t0
                self.active.pop()
                self._add(key, dt)
            on_item(item)
            yield item

    def close(self) -> None:
        root = self.spans[0]
        root["end"] = clock()
        root["attrs"]["rss_mb"] = _rss_mb()


def _snf_bits(res) -> int:
    """Largest bit-length among the divisors and transform entries."""
    rows = (res.divisors, *res.u, *res.uinv, *res.v, *res.vinv)
    return max((abs(v).bit_length() for row in rows for v in row), default=0)


def install(tr: Tracer) -> None:
    """Put timing wrappers in place of the functions the CLI path calls."""
    counts = tr.counts

    # presentation: the builders, wherever a module bound them by name
    def on_builder(name, fn):
        def counted(*args):
            res = fn(*args)
            if name == "reduced_relators":
                counts["presentation.relators"] = len(res)
            return res

        return tr.summed(lambda *a: "presentation.build_s", functools.wraps(fn)(counted))

    for name in PRESENTATION_BUILDERS:
        orig = getattr(presentation, name)
        wrapped = on_builder(name, orig)
        for mod in (presentation, identities, reduction, homology, cli):
            if getattr(mod, name, None) is orig:
                setattr(mod, name, wrapped)

    # verify: the soundness check and the identity suite, per family
    cli._verify_presentation = tr.span(lambda n: "presentation.soundness", cli._verify_presentation)
    cli._verify_identities = tr.span(lambda n: "identities.suite", cli._verify_identities)

    def on_instance(entry):
        counts["identities.suite_instances"] += 1

    def suite_family(name, gen):
        return lambda n: tr.stream(f"identities.suite_s.{name}", iter(gen(n)), on_instance)

    identities.SUITE_FAMILIES = tuple(
        (name, suite_family(name, gen)) for name, gen in identities.SUITE_FAMILIES
    )

    # certify-h2: harvest = certificate streams, fold, eliminate
    def harvest_name(n, coeff, *rest):
        tr.coeff = coeff
        return f"reduction.harvest.{coeff}"

    harvest = tr.span(harvest_name, cli.harvest)

    def traced_harvest(*args, **kwargs):
        pres = harvest(*args, **kwargs)
        store = tr.stores.pop()
        counts["reduction.rows"] += store.stats["rows"]
        counts["reduction.rows_unique"] += len(store.rows)
        counts["reduction.rows_dup"] += store.stats["dup"]
        counts["reduction.rows_zero"] += store.stats["zero"]
        counts["reduction.pivots"] += pres.pivot_count
        counts["reduction.residual_rows"] += pres.residual_rows
        counts["reduction.bound"] += pres.bound
        return pres

    cli.harvest = traced_harvest

    def on_certificate(item):
        _, cert = item
        counts["identities.harvest_certificates"] += 1
        counts["reduction.fold_factors"] += len(cert.rhs.factors)

    def family(tag, builder):
        return lambda n: tr.stream(f"identities.harvest_s.{tag}", iter(builder(n)), on_certificate)

    reduction.FAMILIES = tuple(
        (tag, name, family(tag, builder)) for tag, name, builder in reduction.FAMILIES
    )

    def fold_key(*args):
        return f"reduction.fold_s.{tr.coeff}"

    def eliminate_key(*args):
        return f"reduction.eliminate_s.{tr.coeff}"

    def sample_rss(stage: str) -> None:
        tr.rss.setdefault(f"{stage}.{tr.coeff}", _rss_mb())

    reduction.relation_from_null = tr.summed(fold_key, reduction.relation_from_null)

    class RowStore(reduction.RowStore):
        add_row = tr.summed(fold_key, reduction.RowStore.add_row)

        def __init__(self, ncols):
            super().__init__(ncols)
            tr.stores.append(self)

    class ExactEliminator(reduction.ExactEliminator):
        def __init__(self, *args):
            sample_rss("fold")
            tr.summed(eliminate_key, super().__init__)(*args)

        finish = tr.summed(eliminate_key, reduction.ExactEliminator.finish)

    reduction.RowStore = RowStore
    reduction.ExactEliminator = ExactEliminator
    reduction._account = tr.summed(eliminate_key, reduction._account)
    compact = tr.summed(eliminate_key, reduction._compact_matrix)

    def compact_matrix(*args):
        res = compact(*args)
        sample_rss("eliminate")
        return res

    reduction._compact_matrix = compact_matrix

    # homology: five_term_data and its stages, each a span
    def five_term_name(n, coeff, *rest):
        tr.coeff = coeff
        return f"homology.five_term.{coeff}"

    cli.five_term_data = tr.span(five_term_name, cli.five_term_data)

    def certificate_name(n, coeff, *rest):
        return f"homology.certificate.{coeff}"

    cli.h2_certificate = tr.span(certificate_name, cli.h2_certificate)

    def stage(name):
        return lambda *a: f"homology.{name}.{tr.coeff}"

    d1_seen = []  # the d1 matrix of the five_term_data call in progress

    checkpoint = tr.span(stage("assemble"), homology._matrix_checkpoint)

    def matrix_checkpoint(name, *args):
        res = checkpoint(name, *args)
        if name == "d1":
            d1_seen[:] = [res]
        elif name == "phi":
            counts["homology.phi_nnz"] += res.nnz()
        return res

    snf_d1 = tr.span(stage("d1_snf"), homology.snf_cached)
    snf_image = tr.span(stage("image_snf"), homology.snf_cached)

    def snf_cached(a, cache_dir):
        is_d1 = bool(d1_seen) and a is d1_seen[0]
        if is_d1:
            d1_seen.clear()
        res = (snf_d1 if is_d1 else snf_image)(a, cache_dir)
        tr.snfs.append(res)
        return res

    echelon = tr.span(stage("echelon"), homology._echelon_cached)

    def echelon_cached(*args):
        res = echelon(*args)
        counts["homology.echelon_cols"] += res.ncols
        return res

    homology._matrix_checkpoint = matrix_checkpoint
    homology.check_chain_condition = tr.span(stage("chain_check"), homology.check_chain_condition)
    homology.snf_cached = snf_cached
    homology._echelon_cached = echelon_cached
    homology.rank_mod_p = tr.span(stage("modp"), homology.rank_mod_p)


def layer_metrics(tr: Tracer, cache_dir: str | None) -> dict:
    """Per-layer times, counts and RSS samples, keyed by metric name."""
    spans = tr.spans
    dur: dict[str, float] = defaultdict(float)
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        d = s["end"] - s["start"]
        dur[s["name"]] += d
        if s["parent"] is not None:
            child_s[s["parent"]] += d
    m = dict(tr.counts)
    m["presentation.build_s"] = tr.acc["presentation.build_s"]
    m["presentation.soundness_s"] = dur["presentation.soundness"]
    for fam in SUITE_NAMES:
        m[f"identities.suite_s.{fam}"] = tr.acc[f"identities.suite_s.{fam}"]
    m["identities.suite_s"] = sum(m[f"identities.suite_s.{fam}"] for fam in SUITE_NAMES)
    for tag in reduction.FAMILY_TAGS:
        m[f"identities.harvest_s.{tag}"] = tr.acc[f"identities.harvest_s.{tag}"]
    m["identities.harvest_s"] = sum(m[f"identities.harvest_s.{t}"] for t in reduction.FAMILY_TAGS)
    for coeff in COEFFS:
        m[f"reduction.fold_s.{coeff}"] = tr.acc[f"reduction.fold_s.{coeff}"]
        m[f"reduction.eliminate_s.{coeff}"] = tr.acc[f"reduction.eliminate_s.{coeff}"]
    rows = m["reduction.rows"]
    m["reduction.row_yield"] = m["reduction.rows_unique"] / rows if rows else 0.0
    # High-water after the first module's row collection and elimination,
    # before the second module adds its own rows.
    m["reduction.rss_after_fold_mb"] = tr.rss.get(f"fold.{COEFFS[0]}", 0.0)
    m["reduction.rss_after_eliminate_mb"] = tr.rss.get(f"eliminate.{COEFFS[0]}", 0.0)
    for name in STAGES:
        m[f"homology.{name}_s"] = sum(dur[f"homology.{name}.{c}"] for c in COEFFS)
    m["homology.five_term_s"] = sum(dur[f"homology.five_term.{c}"] for c in COEFFS)
    files = [p for p in Path(cache_dir).iterdir() if p.is_file()] if cache_dir else []
    m["homology.cache_bytes"] = sum(
        p.stat().st_size for p in files if not p.name.startswith("relations-")
    )
    m["cli.relations_dump_bytes"] = sum(
        p.stat().st_size for p in files if p.name.startswith("relations-")
    )
    # cli self time: the root span minus its child spans and the summed
    # timers that ran directly under it
    root = spans[0]
    m["cli.self_s"] = root["end"] - root["start"] - child_s[0] - tr.covered[0]
    return m


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    cfg = cli.parse_config(cli_args)
    tr = Tracer(_T0)
    install(tr)
    code = cli.main(cli_args)
    tr.close()
    # scanned here so that the scan is not timed inside five_term_data
    tr.counts["homology.snf_max_bits"] = max(map(_snf_bits, tr.snfs), default=0)
    doc = {"metrics": layer_metrics(tr, cfg.cache_dir), "spans": tr.spans}
    Path(trace_out).write_text(json.dumps(doc, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
