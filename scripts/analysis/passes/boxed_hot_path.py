"""boxed-hot-path: no per-row Value boxing inside hot paths.

Batches cross the columnar→matrix boundary, and operators that assemble new
rows (joins, aggregation, sort) emit them, through the typed kernels in
exec/gather.h, not one tagged-union Value per cell.
"""

from __future__ import annotations

import re

from ..core import Finding, Pass

# Inference hot paths, plus the relational operators ML-To-SQL runs on (paper
# §4: inference as joins and SUM ... GROUP BY, over model-table scans with
# pushed layer filters). UDF boxing
# (src/integration/udf.cc) is deliberately NOT listed: per-value boxing is the
# UDF experiment's measured tax (paper Table 2).
HOT_PATHS = ("src/modeljoin/", "src/nn/", "src/integration/capi_operator.cc",
             "src/exec/join.cc", "src/exec/aggregate.cc",
             "src/exec/groupjoin.cc", "src/exec/basic_operators.cc",
             "src/exec/scan.cc")
# Files under the hot paths allowed to box (none today; add `rel` paths with
# a justification if a cold diagnostic path genuinely needs Value).
ALLOWED_FILES: set = set()

# GetValue/SetValue box one cell; Vector::Append boxes one appended cell.
BOXED_RE = re.compile(r"\b(Get|Set)Value\s*\(|\.Append\s*\(")


class BoxedHotPathPass(Pass):
    name = "boxed-hot-path"
    roots = ("src",)

    def check_file(self, sf, ctx):
        if not sf.rel.startswith(HOT_PATHS) or sf.rel in ALLOWED_FILES:
            return []
        findings = []
        for lineno, line in sf.iter_code():
            if BOXED_RE.search(line):
                findings.append(
                    Finding(sf.rel, lineno, self.name,
                            "per-row Value boxing in a hot path; "
                            "gather through exec/gather.h instead"))
        return findings


PASS = BoxedHotPathPass
