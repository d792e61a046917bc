"""End-to-end design pipeline, canned paper experiments, registry, artifacts.

* :class:`~repro.core.designer.RobustPathwayDesigner` — optimize → mine →
  robustness, the paper's methodology as one object;
* :mod:`repro.core.experiments` — one function per table/figure of the
  evaluation section, shared by the benchmark harness, the integration tests
  and the CLI;
* :mod:`repro.core.registry` — the experiment registry: every canned
  experiment as a named entry with a parameter schema and artifact spec;
* :mod:`repro.core.artifacts` — durable run artifacts (manifest, front
  JSON/CSV, ledger) with loaders that re-hydrate recorded fronts into
  :class:`~repro.moo.individual.Individual` objects;
* :mod:`repro.core.report` — deterministic plain-text rendering shared by
  the CLI, the docs examples and the benchmark output.
"""

from repro.core.artifacts import (
    RunManifest,
    individuals_from_front,
    list_runs,
    load_front,
    load_manifest,
    load_result,
    record_run,
)
from repro.core.designer import DesignReport, RobustPathwayDesigner, SelectedDesign
from repro.core.registry import (
    REGISTRY,
    Experiment,
    Parameter,
    experiment_names,
    get_experiment,
)
from repro.core.experiments import (
    Figure1Result,
    Figure2Result,
    Figure3Result,
    Figure4Result,
    MigrationAblationResult,
    Table1Result,
    Table2Result,
    run_figure1,
    run_figure2,
    run_figure3,
    run_figure4,
    run_migration_ablation,
    run_table1,
    run_table2,
)
from repro.core.report import (
    format_table,
    paper_vs_measured,
    render_design_report,
    render_selections,
)

__all__ = [
    "DesignReport",
    "RobustPathwayDesigner",
    "SelectedDesign",
    "REGISTRY",
    "Experiment",
    "Parameter",
    "experiment_names",
    "get_experiment",
    "RunManifest",
    "individuals_from_front",
    "list_runs",
    "load_front",
    "load_manifest",
    "load_result",
    "record_run",
    "Figure1Result",
    "Figure2Result",
    "Figure3Result",
    "Figure4Result",
    "MigrationAblationResult",
    "Table1Result",
    "Table2Result",
    "run_figure1",
    "run_figure2",
    "run_figure3",
    "run_figure4",
    "run_migration_ablation",
    "run_table1",
    "run_table2",
    "format_table",
    "paper_vs_measured",
    "render_design_report",
    "render_selections",
]
