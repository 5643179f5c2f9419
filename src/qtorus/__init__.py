"""Exact q-series arithmetic for coloured torus-link invariants and
logarithmic VOA characters, with executable verification of their limit
identities."""

from .combinatorics import (
    Composition,
    Partition,
    as_composition,
    as_partition,
    compositions_of,
    enumerate_ssyt,
    enumerate_ssyt_bounded,
    kappa,
    kostka,
    partitions_of,
    schur_expand_oracle,
)
from .lie_sl import (
    WeightVector,
    casimir_pairing,
    dominant_weights,
    partition_of_weight,
    scaled_coeff_sum,
    weight_of_partition,
    weyl_dim,
    zero_weight_dim,
)
from .link_invariants import (
    TorusLinkSpec,
    jones_summands,
    jones_torus_link,
    shifted_invariant_singlet,
    shifted_invariant_triplet,
    singlet_shift_exponent,
    summand_floor,
    triplet_shift_exponent,
)
from .qseries import QSeries, euler_product, exact_div, invert_unit
from .schur_spec import principal_spec, principal_spec_weight
from .verifier import (
    VerificationReport,
    check_prop_full_dim,
    check_prop_zero_weight,
    first_disagreement,
    phi,
    phi_bijection_check,
    phi_inverse,
    verify_singlet_theorem,
    verify_triplet_theorem,
)
from .voa_characters import (
    CharacterSpec,
    rhs_singlet_limit,
    rhs_triplet_limit,
    singlet_char,
    summand_exponent_bound,
    triplet_char,
)

__version__ = "0.1.0"
