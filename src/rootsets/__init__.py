"""Root sets, the K subgroup, and related constructions in finite groups
and ascending towers of finite groups."""

__version__ = "0.1.0"

from .kernel import (  # noqa: F401
    FiniteGroupTable,
    GroupError,
    Homomorphism,
    OracleGroup,
    Subset,
    center,
    centralizer,
    closure,
    commutator,
    cosets,
    cyclic_subgroup,
    derived_subgroup,
    direct_product,
    dumps_table,
    exponent,
    load_table,
    loads_table,
    omega1,
    order_of,
    order_profile,
    quotient,
    validate_automorphism,
)
from .eta import (  # noqa: F401
    EtaSet,
    d_finite,
    eta,
    k_finite,
    lemma38_decide,
    p_prime_part,
)
from .towers import (  # noqa: F401
    EtaReport,
    KReport,
    PruferTower,
    QuaternionTower,
    QuotientTower,
    T1Tower,
    T2Tower,
    Tower,
    eta_stabilized,
    example_t2_tower,
    inversion_recipe,
    k_estimate,
)
from .constructions import (  # noqa: F401
    CocycleTable,
    TreeVWSpec,
    central_extension,
    check_class2_squaring,
    heisenberg,
    is_generalized_quaternion,
    omega1_census,
    q8_cocycle,
    quaternion_reduce,
    tree_vw_group,
)
