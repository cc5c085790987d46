"""Wideband massive-MIMO channel prediction laboratory."""

from .channel import (
    ChannelConfig,
    ChannelTensor,
    PathSet,
    SynthesizedLink,
    draw_paths,
    export_trace,
    import_trace,
    series_view,
    steering_vector,
    synthesize,
)
from .correlation import CorrelationReport, correlation_report
from .datasets import (
    DatasetSpec,
    WindowedDataset,
    build_jl,
    build_jldt,
    build_series_dataset,
    complex_to_real,
    fit_scale,
)
from .errors import (
    ChanpredError,
    ConfigError,
    ContractError,
    TraceFormatError,
    TrainingDivergedError,
)
from .estimation import PilotScheme, db_to_linear, dft_pilot, estimate_trace
from .mlp import (
    AdamState,
    MlpModel,
    TrainConfig,
    adam_step,
    backward,
    init_mlp,
    load_model,
    loss_mse,
    predict,
    save_model,
    train,
)
from .pipelines import (
    APPROACHES,
    ExperimentConfig,
    NmseEntry,
    NmseReport,
    nmse,
    persistence_nmse,
    prepare_link,
    snr_sweep,
)

__version__ = "0.1.0"
