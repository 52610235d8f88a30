"""Exact continued fraction cylinders, critical exponents and covering bounds.

The package splits into five layers: exact digit-word arithmetic
(cfcore), high precision zeta tails (special), index sequences and
digit sets (sequences), covering machinery with critical exponents
(dimension), constructive schedules with the size/separation/Holder
checks (construction), and closed-form dimension values (hirst).  The
cli module exposes all of it as the ``cfdim`` command.
"""

__version__ = "0.1.0"

from .cfcore import (
    Convergent,
    Cylinder,
    PartialQuotients,
    QuotientRatioCheck,
    continuant,
    convergents,
    cylinder,
    delete_indices,
    evaluate,
    expand_decimal,
    expand_rational,
    normalize,
    quotient_ratio_check,
)
from .construction import (
    StepSchedule,
    build_point,
    choose_schedule,
    holder_check,
    nominal_onset,
    sample_holder_pairs,
    schedule_onset,
    step_value,
    verify_separation,
    verify_size_bound,
)
from .dimension import (
    CriticalSolveResult,
    ReferenceBounds,
    asymptotic_exponent,
    covering_sum_enumerated,
    critical_exponent,
    j_interval_length,
    per_level_factor,
    recursion_factor,
    reference_bounds,
)
from .errors import (
    BoundaryAmbiguityError,
    DivergenceError,
    DomainError,
    InsufficientHorizonError,
    PoleProximityError,
    ResourceCapError,
    ToolkitError,
)
from .hirst import (
    covering_condition,
    covering_product_bound,
    digit_power_sum,
    digit_tail_power_sum,
    dimension_dichotomy,
    estimate_condition_floor,
    hirst_dimension,
)
from .sequences import (
    DensityReport,
    DigitSet,
    IndexSequence,
    TauResult,
    density,
    parse_digit_set,
    parse_index_sequence,
    tau,
)
from .special import (
    PrecisionContext,
    euler_gamma,
    laurent_zeta_approx,
    tail_integral_approx,
    zeta,
    zeta_tail,
)
