"""hymem: simulation and Lyapunov stability checking for hybrid systems with memory."""

from .hybrid_time import (
    TIME_TOL,
    ArcSegment,
    DomainError,
    History,
    HybridArc,
    HybridMemoryArc,
    InsufficientHistoryError,
    append_jump,
    arc_from_csv,
    arc_to_csv,
    constant_memory_arc,
    delta_inf,
    memory_arc_from_function,
    memory_window,
    sup_norm_w,
    validate_domain,
    vbar,
    write_arc_csv,
)
from .numerics import (
    InfeasibleError,
    contraction_factor,
    expm,
    solve_discrete_lyapunov,
    spectral_radius,
)
from .solver import (
    EventLocationError,
    PreconditionError,
    SimOptions,
    Termination,
    Trajectory,
    locate_event,
    run_summary,
    simulate,
    verify_solution,
)
from .system import (
    ConfigError,
    DelayTerm,
    Example1Params,
    Example2Params,
    LinearDelayConfig,
    SystemSpec,
    TargetSet,
    build_example1,
    build_example2,
    build_linear_delay_system,
    constant_history,
    history_from_config,
    origin_target,
    origin_times_clock_target,
    parse_linear_delay_config,
)

__version__ = "0.1.0"
