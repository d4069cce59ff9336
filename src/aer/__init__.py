"""Continual learning from noisy class-incremental streams.

Alternating replay/forgetting training with loss-gated buffer insertion,
asymmetric balanced replacement sampling, end-of-task buffer
consolidation, standard rehearsal baselines and an evaluation kit.
"""

__version__ = "0.1.0"

from .buffer import (MemoryBuffer, diversity, insertion_candidates, purity,
                     replace_with_candidates, reservoir_update)
from .config import PRESETS, MethodSpec, RunConfig, config_hash, load_config
from .consolidation import (buffer_fit, consolidate, corefine_labels, fit_gmm_em,
                            sharpen, split_pure_uncertain)
from .engine import RunRecord, replay_batch, run_single, train_reference, train_task
from .errors import ConfigError, InputError, NumericalError, ParseError
from .metrics import (AccuracyMatrix, faa, final_forgetting, separation_trace,
                      summary_row)
from .mlp import (MLP, augment, ce_gradient, per_sample_ce, restore_checkpoint,
                  save_checkpoint)
from .stream import (Batch, Dataset, TaskStream, default_superclass_pairs,
                     inject_noise, load_csv, make_synthetic, save_csv,
                     split_tasks, split_train_test, standardize)
