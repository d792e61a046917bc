"""Registrations of every built-in problem (imported for side effect).

Importing this module populates the :mod:`repro.problems.registry` with the
synthetic validation suite (Schaffer, Fonseca-Fleming, the ZDT family, DTLZ2,
Binh-Korn, Kursawe) and the paper's two case studies (photosynthesis — plain
and robust — and Geobacter flux design).  The module is imported lazily by
the registry accessors, and every factory imports its problem class lazily,
so ``import repro.problems`` stays cheap and cycle-free.
"""

from __future__ import annotations

from repro.problems.base import Problem
from repro.problems.registry import ProblemSpec, register_problem
from repro.registry import Parameter


def _schaffer(bound: float) -> Problem:
    from repro.moo.testproblems import Schaffer

    return Schaffer(bound=bound)


def _fonseca(n_var: int) -> Problem:
    from repro.moo.testproblems import FonsecaFleming

    return FonsecaFleming(n_var=n_var)


def _zdt(cls_name: str, n_var: int) -> Problem:
    import repro.moo.testproblems as testproblems

    return getattr(testproblems, cls_name)(n_var=n_var)


def _dtlz2(n_obj: int, n_var: int | None) -> Problem:
    from repro.moo.testproblems import DTLZ2

    return DTLZ2(n_obj=n_obj, n_var=n_var)


def _bnh() -> Problem:
    from repro.moo.testproblems import ConstrainedBNH

    return ConstrainedBNH()


def _kursawe(n_var: int) -> Problem:
    from repro.moo.testproblems import Kursawe

    return Kursawe(n_var=n_var)


def _photosynthesis(
    era: str, export: str, lower_scale: float, upper_scale: float
) -> Problem:
    from repro.photosynthesis.conditions import condition
    from repro.photosynthesis.problem import PhotosynthesisProblem

    return PhotosynthesisProblem(
        condition(era, export), lower_scale=lower_scale, upper_scale=upper_scale
    )


def _photosynthesis_robust(
    era: str,
    export: str,
    lower_scale: float,
    upper_scale: float,
    robustness_trials: int,
    epsilon: float,
    seed: int,
) -> Problem:
    from repro.photosynthesis.conditions import condition
    from repro.photosynthesis.problem import RobustPhotosynthesisProblem

    return RobustPhotosynthesisProblem(
        condition(era, export),
        lower_scale=lower_scale,
        upper_scale=upper_scale,
        robustness_trials=robustness_trials,
        epsilon=epsilon,
        seed=seed,
    )


def _geobacter(flux_cap: float, violation_tolerance: float, violation_norm: str) -> Problem:
    from repro.geobacter.problem import GeobacterDesignProblem

    return GeobacterDesignProblem(
        flux_cap=flux_cap,
        violation_tolerance=violation_tolerance,
        violation_norm=violation_norm,
    )


_N_VAR = Parameter("n_var", int, 30, "number of decision variables")

register_problem(
    ProblemSpec(
        name="schaffer",
        title="Schaffer's single-variable problem (convex front)",
        factory=_schaffer,
        description="f1 = x^2 against f2 = (x - 2)^2 over one bounded variable.",
        parameters=(Parameter("bound", float, 10.0, "half-width of the decision box"),),
    )
)

register_problem(
    ProblemSpec(
        name="fonseca",
        title="Fonseca & Fleming's problem (concave front)",
        factory=_fonseca,
        description="Two exponential objectives over a symmetric box.",
        parameters=(Parameter("n_var", int, 3, "number of decision variables"),),
    )
)

for _zdt_name, _zdt_cls, _zdt_default, _zdt_title in (
    ("zdt1", "ZDT1", 30, "ZDT1 (convex Pareto front)"),
    ("zdt2", "ZDT2", 30, "ZDT2 (non-convex Pareto front)"),
    ("zdt3", "ZDT3", 30, "ZDT3 (disconnected Pareto front)"),
    ("zdt6", "ZDT6", 10, "ZDT6 (non-uniform, non-convex front)"),
):
    register_problem(
        ProblemSpec(
            name=_zdt_name,
            title=_zdt_title,
            factory=(lambda cls: lambda n_var: _zdt(cls, n_var))(_zdt_cls),
            description="Member of the ZDT bi-objective validation family.",
            parameters=(
                Parameter("n_var", int, _zdt_default, "number of decision variables"),
            ),
        )
    )

register_problem(
    ProblemSpec(
        name="dtlz2",
        title="DTLZ2 (spherical front, configurable objective count)",
        factory=_dtlz2,
        description="Scalable many-objective problem with a unit-sphere front.",
        parameters=(
            Parameter("n_obj", int, 3, "number of objectives"),
            Parameter("n_var", int, None, "decision variables (default n_obj + 9)"),
        ),
    )
)

register_problem(
    ProblemSpec(
        name="bnh",
        title="Binh & Korn's constrained bi-objective problem",
        factory=_bnh,
        description="Two quadratic objectives under two inequality constraints.",
    )
)

register_problem(
    ProblemSpec(
        name="kursawe",
        title="Kursawe's problem (disconnected, non-convex front)",
        factory=_kursawe,
        description="Three-variable problem with a disconnected front.",
        parameters=(Parameter("n_var", int, 3, "number of decision variables"),),
    )
)

_PHOTO_PARAMETERS = (
    Parameter("era", str, "present", "CO2 era: past, present or future"),
    Parameter("export", str, "high", "triose-P export level: low or high"),
    Parameter("lower_scale", float, 0.05, "lower bound as multiple of natural activity"),
    Parameter("upper_scale", float, 3.0, "upper bound as multiple of natural activity"),
)

register_problem(
    ProblemSpec(
        name="photosynthesis",
        title="C3 photosynthesis enzyme partitioning (CO2 uptake vs nitrogen)",
        factory=_photosynthesis,
        description=(
            "The paper's plant case study: redistribute 23 enzyme activities "
            "to maximize net CO2 uptake while minimizing invested protein "
            "nitrogen, under one of the six Ci / export conditions."
        ),
        parameters=_PHOTO_PARAMETERS,
    )
)

register_problem(
    ProblemSpec(
        name="photosynthesis-robust",
        title="Photosynthesis with the robustness yield as a third objective",
        factory=_photosynthesis_robust,
        description=(
            "Three-objective variant behind the Figure 3 trade-off surface: "
            "uptake, nitrogen, and the Monte-Carlo robustness yield."
        ),
        parameters=_PHOTO_PARAMETERS
        + (
            Parameter("robustness_trials", int, 60, "Monte-Carlo trials per design"),
            Parameter("epsilon", float, 0.05, "relative perturbation magnitude"),
            Parameter("seed", int, 0, "seed of the perturbation ensemble"),
        ),
    )
)

register_problem(
    ProblemSpec(
        name="geobacter",
        title="Geobacter flux design (electron vs biomass production)",
        factory=_geobacter,
        description=(
            "The paper's second case study: maximize electron and biomass "
            "production over the 608 reaction fluxes, with the steady-state "
            "residual as a constraint."
        ),
        parameters=(
            Parameter("flux_cap", float, 200.0, "practical bound for +/-1000 reactions"),
            Parameter(
                "violation_tolerance", float, 1e-3, "steady-state feasibility tolerance"
            ),
            Parameter("violation_norm", str, "l1", "violation norm: l1, l2 or linf"),
        ),
    )
)
