"""Figure 14: data-layout-agnostic programming.

The paper runs SSCA2 (betweenness centrality) and Graph500 (BFS) in both
a naive linked-structure implementation and the spatially optimised
array/CSR implementation, under every prefetcher, reporting CPI.  The
finding: only the context prefetcher lets the naive linked code approach
the optimised code's performance; all spatio-temporal prefetchers
distinctly favour the optimised layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import render_table
from repro.experiments.sweep import SCALES
from repro.sim.config import PREFETCHER_ORDER
from repro.sim.runner import compare

#: case study -> layout -> registry workload
STUDIES = {
    "ssca2": {"linked": "ssca2-list", "array": "ssca2-csr"},
    "graph500": {"linked": "graph500-list", "array": "graph500-csr"},
}


@dataclass
class Figure14Result:
    #: case study -> layout -> prefetcher -> CPI
    cpi: dict[str, dict[str, dict[str, float]]]

    def layout_gap(self, study: str, prefetcher: str) -> float:
        """CPI(linked) / CPI(array): 1.0 means layout no longer matters."""
        layouts = self.cpi[study]
        return layouts["linked"][prefetcher] / layouts["array"][prefetcher]


def run(scale: str = "small", prefetchers=PREFETCHER_ORDER) -> Figure14Result:
    comparison = compare(
        [name for layouts in STUDIES.values() for name in layouts.values()],
        prefetchers,
        limit=SCALES[scale]["limit"],
    )
    cpi = {
        study: {
            layout: {pf: comparison.get(name, pf).cpi for pf in prefetchers}
            for layout, name in layouts.items()
        }
        for study, layouts in STUDIES.items()
    }
    return Figure14Result(cpi=cpi)


def render(result: Figure14Result) -> str:
    prefetchers = list(next(iter(result.cpi.values()))["linked"])
    rows = []
    for study, layouts in result.cpi.items():
        for layout, by_pf in layouts.items():
            rows.append(
                (study, layout) + tuple(f"{by_pf[pf]:.2f}" for pf in prefetchers)
            )
    table = render_table(
        ("study", "layout") + tuple(prefetchers),
        rows,
        title="Figure 14 — CPI for naive (linked) vs optimised (array) layouts",
    )
    gap_rows = [
        (study, pf, f"{result.layout_gap(study, pf):.2f}")
        for study in result.cpi
        for pf in prefetchers
    ]
    gaps = render_table(
        ("study", "prefetcher", "CPI(linked)/CPI(array)"),
        gap_rows,
        title="layout penalty per prefetcher (1.00 = layout-agnostic)",
    )
    return table + "\n\n" + gaps


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
