"""evograft: grow one multitask model system by evolutionary grafting.

Models for many tasks share frozen layer blocks held in a single store. An
evolutionary agent extends the system one task iteration at a time: children
are spawned from sampled parents by cloning layers into trainable copies,
removing top layers, and stepping hyperparameters, then kept only if a
quality score discounted by size and compute penalties clears the bar.
Frozen blocks are never written, so settled tasks cannot be forgotten.
"""

from .checkpoint import block_digest, load_checkpoint, save_checkpoint, system_digest
from .data import (GenSpec, TaskDataset, TaskGenSpec, generate_synthetic_tasks,
                   load_gen_spec, load_task_dir, scan_task_dirs)
from .evolution import (MODE_MUNET, MODE_MUNET_PLUS, EvolutionConfig, SegmentSpec,
                        bootstrap_system, load_segments, metrics_snapshot,
                        parent_acceptance_probability, parse_segments,
                        run_generation, run_plan, run_segment,
                        run_task_iteration, sample_parent)
from .mutations import apply_mutations, inherit_mu, possible_mutations, sample_mutations
from .rng import Rng
from .scoring import ScoreParams, calibrate, score, score_model
from .search_space import (MU_GRID, MU_INIT, HparamAxis, SearchSpace,
                           load_builtin_space, load_space, mu_neighbors)
from .system import LayerBlock, MetricsSnapshot, ModelSpec, SystemState, export_dot
from .trainer import (TrainBudget, evaluate, forward, loss_and_gradients, lr_at,
                      preprocess_batch, sgd_step, train_cycle)

__version__ = "0.1.0"
