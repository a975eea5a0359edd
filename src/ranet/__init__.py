"""Region-aware feedback crowd counting at desk scale.

The pieces: immutable raster/annotation types with bit-exact I/O (core),
a finite-difference-verifiable reverse-mode tape (autodiff), the
column-relevance enhancement block (region_aware), the Bayesian
point-supervision loss (bayes), a miniature two-pass network (network),
a deterministic scene generator (datagen), the training harness
(training), count metrics (evaluate), and a CLI (cli).
"""

from .autodiff import GraphError, NumericError, ShapeError, Tape, Tensor
from .bayes import bayes_loss
from .core import (
    DensityMap,
    FormatError,
    GrayImage,
    PointAnnotations,
    Scene,
    load_annotations,
    load_density,
    load_image,
    save_annotations,
    save_density,
    save_image,
)
from .datagen import SceneSpec, gen_dataset, gen_scene, load_split
from .evaluate import EvalReport, count_metrics, evaluate_checkpoint, evaluate_scenes
from .network import ForwardResult, NetConfig, forward, full_forward, init_params, predict
from .region_aware import embed, enhance, ra_apply, relevance, similarity
from .training import (
    EpochStats,
    OptState,
    TrainConfig,
    TrainingError,
    load_checkpoint,
    random_crop,
    save_checkpoint,
    train,
    train_epoch,
)

__version__ = "0.1.0"
