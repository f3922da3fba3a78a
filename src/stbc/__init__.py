"""Space-time block codes for 2^a transmit antennas.

Construction and certification of rate-1 4-group decodable designs and
their full-rate extensions, equivalent-channel / R-matrix analysis,
exact reduced-complexity ML decoding, ergodic-capacity estimation and a
seeded Rayleigh Monte-Carlo error-rate harness.
"""

from .capacity import (
    CapacityEstimate,
    HighSnrComparison,
    channel_capacity,
    code_capacity,
    high_snr_decomposition,
    low_snr_condition,
    random_rotation_baseline,
)
from .channel import (
    ChannelRealization,
    RProfile,
    column_orthogonality_pairs,
    equivalent_channel,
    mandated_zero_mask,
    profile_over_channels,
    r_profile,
    sample_channel,
    sample_channels,
)
from .clifford import (
    CliffordSet,
    SignedProduct,
    build_generators,
    power_set_products,
    product_of,
    products_commute,
    subset_square_sign,
    verify_generators,
    verify_traceless,
)
from .coding_gain import (
    Encoder,
    RotationSpec,
    builtin_rotation,
    decode_info,
    default_encoder,
    encode,
    extract_W,
    identity_encoder,
    min_determinant,
)
from .decoder import (
    ComplexityAccount,
    Constellation,
    DecodeResult,
    complexity_account,
    constellation,
    decode_auto,
    ml_oracle,
    square_qam,
)
from .designs import (
    STBCDesign,
    build_rate1_4group,
    codeword,
    design_from_text,
    design_to_text,
    extend_full_rate,
    load_design,
    save_design,
    verify_design,
    verify_group_decodable,
    verify_theorem1,
)
from .linalg import (
    gram_schmidt_qr,
    realify,
    tilde_vec,
)
from .sim import (
    SimConfig,
    SimRecord,
    draw_trial,
    emit_csv,
    run_error_sweep,
    uncoded_siso_sweep,
    verify_all,
)

__version__ = "0.1.0"
