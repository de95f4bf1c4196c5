"""Possibilistic second-order uncertainty for classifiers.

The package turns a classifier's logits into Dirichlet-shaped possibility
functions over the probability simplex, trains the underlying network with a
closed-form surrogate loss (analytic gradients, no autodiff), and ships a
deterministic experiment harness for calibration, out-of-distribution
detection, data-scaling and leave-one-out studies.
"""

from .datasets import (LabeledDataset, SplitSpec, gaussian_blobs, load_csv,
                       long_tail_resample, ood_generator, split, two_moons)
from .errors import (CsvParseError, DapprError, DegenerateAlphaError,
                     MaximiserValidityError, MetricUndefinedError,
                     StratificationError)
from .loss import (LossConfig, LossOutput, closed_form_maximiser,
                   cross_entropy_loss, dappr_loss, lambda_schedule,
                   multi_observation_maximiser, softplus_plus_one,
                   vacuous_evidence_penalty)
from .metrics import (ReliabilityBins, aleatoric_uncertainty, aupr, auroc,
                      ece, epistemic_uncertainty, reliability_bins,
                      softmax_entropy)
from .nn import (NetworkParams, TrainConfig, TrainHistory, background_law,
                 forward, init_network, load_checkpoint, predict_alpha,
                 save_checkpoint, train)
from .possibility import (DirichletParams, PossibilityTable, SimplexPoint,
                          dirichlet_mode, dirichlet_possibility,
                          grid_argmax_surrogate, log_dirichlet_possibility,
                          maxitive_divergence, possibilistic_posterior,
                          pushforward_possibility, simplex_grid)

__version__ = "0.1.0"
