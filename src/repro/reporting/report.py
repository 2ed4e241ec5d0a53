"""Markdown report generation over the full evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.analysis.lifetime import (
    maxwe_normalized,
    pcd_ps_normalized,
    ps_worst_normalized,
    uaa_fraction,
)
from repro.core.overhead import mapping_overhead_report, paper_overhead_geometry
from repro.sim.config import ExperimentConfig
from repro.sim.experiments import (
    bpa_scheme_comparison,
    spare_fraction_sweep,
    swr_fraction_sweep,
    uaa_scheme_comparison,
)
from repro.util.asciiplot import bar_chart, line_plot
from repro.util.stats import geometric_mean

#: Paper reference values surfaced in the report.
PAPER = {
    "uaa_unprotected": 0.041,
    "maxwe_improvement": 9.5,
    "fig6": {0.0: 0.041, 0.01: 0.14, 0.1: 0.431, 0.2: 0.579, 0.3: 0.741, 0.4: 0.869, 0.5: 0.874},
    "fig8_gmean": {"max-we": 0.474, "pcd-ps": 0.412, "ps-worst": 0.256},
    "overhead_reduction": 0.85,
}


@dataclass(frozen=True)
class ReportSection:
    """One titled block of the report."""

    title: str
    body: str

    def render(self) -> str:
        """Markdown for this section."""
        return f"## {self.title}\n\n{self.body}\n"


def _code(block: str) -> str:
    return f"```\n{block}\n```"


def _closed_forms_section(config: ExperimentConfig) -> ReportSection:
    p, q = config.spare_fraction, config.q
    lines = [
        f"Closed forms at p = {p:.0%}, q = {q:g} (Eq. 5-8):",
        "",
        f"- no protection: **{uaa_fraction(q):.1%}**",
        f"- PS-worst: **{ps_worst_normalized(p, q):.1%}**",
        f"- PCD/PS: **{pcd_ps_normalized(p, q):.1%}**",
        f"- Max-WE: **{maxwe_normalized(p, q):.1%}**",
    ]
    return ReportSection("Analytic lifetimes (Section 4.3)", "\n".join(lines))


def _uaa_section(config: ExperimentConfig, options: dict) -> ReportSection:
    results = uaa_scheme_comparison(config, **options)
    baseline = results["no-protection"]
    chart = bar_chart(
        {name: result.normalized_lifetime for name, result in results.items()},
        title="normalized lifetime under UAA (10% spares)",
    )
    body = (
        _code(chart)
        + "\n\n"
        + f"Max-WE improvement over no protection: "
        f"**{results['max-we'].improvement_over(baseline):.1f}X** "
        f"(paper: {PAPER['maxwe_improvement']}X)."
    )
    return ReportSection("UAA scheme comparison (Section 5.3.1)", body)


def _fig6_section(config: ExperimentConfig, options: dict) -> ReportSection:
    sweep = spare_fraction_sweep(config, **options)
    fractions = [fraction for fraction, _ in sweep]
    measured = [result.normalized_lifetime for _, result in sweep]
    paper = [PAPER["fig6"][fraction] for fraction in fractions]
    plot = line_plot(
        fractions,
        {"measured": measured, "paper": paper},
        title="Figure 6: Max-WE lifetime under UAA vs spare capacity",
    )
    return ReportSection("Spare-capacity sweep (Figure 6)", _code(plot))


def _fig7_section(config: ExperimentConfig, options: dict) -> ReportSection:
    sweeps = swr_fraction_sweep(config, **options)
    fractions = [fraction for fraction, _ in next(iter(sweeps.values()))]
    plot = line_plot(
        fractions,
        {
            name: [result.normalized_lifetime for _, result in series]
            for name, series in sweeps.items()
        },
        title="Figure 7: lifetime under BPA vs SWR share of spares",
    )
    return ReportSection("SWR-share sweep (Figure 7)", _code(plot))


def _fig8_section(config: ExperimentConfig, options: dict) -> ReportSection:
    comparison = bpa_scheme_comparison(config, **options)
    gmeans = {
        name: geometric_mean([r.normalized_lifetime for r in row.values()])
        for name, row in comparison.items()
    }
    chart = bar_chart(gmeans, title="Figure 8 gmeans under BPA (10% spares, 90% SWRs)")
    deltas = "\n".join(
        f"- {name}: measured **{gmeans[name]:.1%}**, paper "
        f"{PAPER['fig8_gmean'][name]:.1%}"
        for name in gmeans
    )
    return ReportSection("BPA scheme comparison (Figure 8)", _code(chart) + "\n\n" + deltas)


def _sensitivity_section(config: ExperimentConfig, options: dict) -> ReportSection:
    from repro.sim.sensitivity import sensitivity_analysis

    report = sensitivity_analysis(config, **options)
    lines = ["Lifetime elasticity (% lifetime per % parameter, +10% step):", ""]
    for name, sensitivity in report.items():
        lines.append(
            f"- `{name}`: **{sensitivity.elasticity:+.2f}** "
            f"({sensitivity.base_value:g} -> {sensitivity.perturbed_value:g}: "
            f"{sensitivity.base_lifetime:.1%} -> {sensitivity.perturbed_lifetime:.1%})"
        )
    lines.append(
        "\nSpare capacity is the strong lever; the SWR share is nearly "
        "inelastic (why the paper trades it for mapping-table savings)."
    )
    return ReportSection("Parameter sensitivity (extension)", "\n".join(lines))


def _overhead_section() -> ReportSection:
    report = mapping_overhead_report(paper_overhead_geometry(), 0.1, 0.9)
    lines = [
        f"- Max-WE hybrid mapping: **{report.hybrid_mib:.2f} MB**",
        f"- all-line-level mapping: **{report.line_level_mib:.2f} MB**",
        f"- reduction: **{report.reduction:.1%}** "
        f"(paper: {PAPER['overhead_reduction']:.0%})",
        f"- share of device capacity: **{report.mapping_fraction_of_capacity:.3%}**",
    ]
    return ReportSection("Mapping-table overhead (Section 5.3.2)", "\n".join(lines))


def generate_report(
    config: Optional[ExperimentConfig] = None,
    output_path: "str | Path | None" = None,
    **options: object,
) -> str:
    """Run the full evaluation and return (optionally write) the report.

    Parameters
    ----------
    config:
        Experiment configuration; defaults to the paper's setup.
    output_path:
        When given, the Markdown is also written there.
    options:
        Execution keywords (:class:`~repro.sim.runner.ExecutionOptions`)
        forwarded to every simulated section; the document is identical
        for every value.
    """
    config = config if config is not None else ExperimentConfig()
    sections: List[ReportSection] = [
        _closed_forms_section(config),
        _uaa_section(config, options),
        _fig6_section(config, options),
        _fig7_section(config, options),
        _fig8_section(config, options),
        _sensitivity_section(config, options),
        _overhead_section(),
    ]
    header = (
        "# Max-WE reproduction report\n\n"
        f"Configuration: {config.regions} regions x {config.lines_per_region} "
        f"lines, endurance model `{config.endurance_model}` (q = {config.q:g}), "
        f"spares {config.spare_fraction:.0%} / SWRs {config.swr_fraction:.0%}, "
        f"seed {config.seed}.\n"
    )
    document = header + "\n" + "\n".join(section.render() for section in sections)
    if output_path is not None:
        Path(output_path).write_text(document)
    return document
