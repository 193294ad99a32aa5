"""Motion-corrected moving average for temporally consistent video
segmentation: optical flow, feature warping, EMA fusion, pipeline executors,
synthetic data and evaluation."""

from .core import (FeatureMap, FlowField, FormatError, Frame, PipelineConfig,
                   SegmentationMask, read_features, read_flow, read_frame,
                   read_mask, write_features, write_flow, write_frame,
                   write_mask)
from .flow import FlowEstimator, downscale_frame, resize_flow, to_grayscale
from .fusion import ema_fuse
from .model import ModelSpec, decode, encode
from .pipeline import (Segmenter, StageTiming, alpha_sweep, benchmark_report,
                       run)
from .synth import (SceneObject, SceneSpec, generate, model_spec_from_scene,
                    prototypes_from_scene, save_dataset)
from .warping import warp_features
from .evaluation import (evaluate_run, fp_rate, miou, motion_in_input_pixels,
                         motion_quantile_partition, report_csv)

__version__ = "0.1.0"
