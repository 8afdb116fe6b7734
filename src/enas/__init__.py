"""Neuroevolution of feed-forward binary classifiers whose genomes also
carry the evolutionary parameters that steer the search itself."""

from .data import (
    Dataset,
    DatasetError,
    FoldSplit,
    export_fold_assignments,
    kfold_split,
    load_csv,
    normalize_min_max,
    shuffle,
)
from .evolution import (
    ConfigurationError,
    EvaluatorPool,
    EvolutionConfig,
    EvolutionState,
    GenerationRecord,
    Individual,
    LiveParams,
    Mode,
    RunResult,
    apply_eco_genes,
    best_individual,
    clone_count,
    init,
    next_generation,
    resize_population,
    run,
    run_on_dataset,
    tournament_select,
)
from .experiment import (
    AuditError,
    DatasetSpec,
    EfficiencyReport,
    ExperimentConfig,
    ExperimentError,
    SummaryRow,
    SummaryTable,
    audit_output_dir,
    config_from_file,
    emit_plot_data,
    run_experiment,
    summarize_efficiency,
)
from .fitness import CrossValFitness, FitnessRecord, f_measure
from .genome import (
    Genome,
    InvalidGenomeError,
    SearchSpace,
    crossover,
    genome_from_doc,
    genome_to_doc,
    mutate,
    sample_cloning_rate,
    sample_genome,
    sample_mutation_rate,
    validate_genome,
)
from .nn import (
    MLPConfig,
    TrainedModel,
    binary_cross_entropy,
    forward,
    glorot_uniform,
    predict,
    train,
)
from .seeding import derive_seed, make_rng

__version__ = "0.1.0"
