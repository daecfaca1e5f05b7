"""Wireless link layer (§4): modulation BER curves, channel codes,
finite-state fading channels, transceiver energy, dynamic adaptation
(E6, [26]) and total-system image transmission (E7, [27])."""

from repro.wireless.adaptation import (
    AdaptationResult,
    best_config_for_state,
    config_space,
    dynamic_policy_energy,
    evaluate_adaptation,
    static_policy_energy,
)
from repro.wireless.channel import (
    ChannelState,
    FiniteStateChannel,
    path_loss,
)
from repro.wireless.coding import (
    CODE_LADDER,
    ConvolutionalCode,
    UNCODED,
)
from repro.wireless.energy import (
    LinkConfig,
    TransceiverParams,
    link_energy,
)
from repro.wireless.image_tx import (
    ImageCoderModel,
    ImageTxConfig,
    ImageTxResult,
    evaluate_image_transmission,
    optimize_for_state,
    total_distortion,
    total_energy,
)
from repro.wireless.packet_channel import (
    LinkErrorModel,
    link_error_model,
    packet_error_rate,
)
from repro.wireless.modulation import (
    BPSK,
    MODULATIONS,
    Modulation,
    QAM16,
    QAM64,
    QPSK,
    db_to_linear,
)

__all__ = [
    "Modulation",
    "BPSK",
    "QPSK",
    "QAM16",
    "QAM64",
    "MODULATIONS",
    "db_to_linear",
    "ConvolutionalCode",
    "UNCODED",
    "CODE_LADDER",
    "ChannelState",
    "FiniteStateChannel",
    "path_loss",
    "TransceiverParams",
    "LinkConfig",
    "link_energy",
    "AdaptationResult",
    "config_space",
    "best_config_for_state",
    "static_policy_energy",
    "dynamic_policy_energy",
    "evaluate_adaptation",
    "ImageCoderModel",
    "ImageTxConfig",
    "ImageTxResult",
    "total_distortion",
    "total_energy",
    "optimize_for_state",
    "evaluate_image_transmission",
    "packet_error_rate",
    "LinkErrorModel",
    "link_error_model",
]
