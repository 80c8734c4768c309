"""Self-ensemble and self-distillation fine-tuning on a desk-scale stack."""

from .autodiff import Tape, Tensor, backward, grad_check
from .data import (
    Batch,
    CsvSchema,
    DatasetSplit,
    Example,
    SyntheticSpec,
    TaskData,
    Vocab,
    build_vocab,
    load_csv,
    make_synthetic,
    prepare_task,
    tokenize_truncate,
)
from .distill import (
    DistillConfig,
    TrainConfig,
    TrainResult,
    TrainState,
    fine_tune,
    sda_loss,
    sda_teacher,
    sdv_teacher_logits,
    train_step,
)
from .encoder import (
    ModelConfig,
    ParameterSet,
    classify,
    encode,
    init_params,
    load_params,
    predict_proba,
    save_params,
)
from .ensemble import (
    CheckpointRing,
    RunningMean,
    average_parameters,
    ring_push,
    running_mean_update,
    voted_predict,
    window_mean,
)
from .errors import (
    ConfigError,
    ContractError,
    DivergenceError,
    InputError,
    SelfDistillError,
    ShapeError,
    UsageError,
)
from .optim import OptimState, accumulate, adamw_step, lr_at
from .reporting import RunReport, StabilityResult, SweepTable

__version__ = "0.1.0"
