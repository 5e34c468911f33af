"""Differentiable Earth Mover's Distance for set-structured embeddings.

Exact transportation-LP solvers (network simplex, primal-dual interior
point, exhaustive oracle), implicit differentiation through the optimum,
cosine ground costs with cross-reference node weights, few-shot episodic
evaluation, retrieval metrics, and synthetic data generation.
"""

from .tensor_io import (DenseTensor, LabeledSetCollection, load_tensor, save_tensor,
                        load_collection, save_collection)
from .transport import (TransportProblem, TransportSolution, solve, solve_simplex,
                        solve_interior_point, solve_oracle,
                        UnbalancedProblemError, InstanceTooLargeError,
                        IterationLimitError, CyclingError)
from .diff import EmdGradients, FlowJacobian, SingularKktError, backward_similarity
from .metric import (EmbeddingSet, ExtractionConfig, best_match, cost_matrix,
                     cross_reference_weights, emd_similarity, pair_similarity,
                     similarity_matrix, similarity_node_grads, extract, extract_pyramid)
from .fewshot import (Episode, SfcPrototypes, ProjectionModel, sample_episode,
                      classify_1shot, classify_kshot, fit_sfc, train_projection,
                      mean_ci95)
from .retrieval import RetrievalRun, rank_gallery, metrics
from .synth import SynthSpec, generate

__version__ = "0.1.0"
