"""Proxy-nationality corpus construction and char-level name classification."""

import importlib

from .core import (
    DuplicateLabelError,
    InputFormatError,
    LabelMapping,
    NameRecord,
    Provenance,
    RecordError,
    Taxonomy,
    TaxonomyError,
    UnknownLabelError,
    load_mapping,
    load_taxonomy,
    name_key,
    normalize_label,
    normalize_name,
    read_records,
    register_taxonomy,
    write_records,
)
from .corpus import (
    CorpusSplits,
    SplitConfig,
    assemble_augmented_splits,
    audit_splits,
    build_filtered_test,
    enforce_no_leakage,
    split_corpus,
)
from .enrichment import (
    AugmentBudget,
    StubNameGenerator,
    StubNameValidator,
    collect_synthetic,
    compute_budgets,
)
from .extraction import (
    AffiliationRecord,
    NormalizationTable,
    build_labeled_corpus,
    normalize_country,
)

# Re-exports from the numpy-backed modules, imported on first access (PEP 562)
# so that the data stages never load numpy.
_LAZY = {
    **dict.fromkeys(
        ("ClassifierModel", "ModelConfig", "TrainConfig", "TrainLog",
         "fit_tokenizer", "load_model", "save_model", "train"), "classifier"),
    **dict.fromkeys(
        ("EvalReport", "bias_report", "bucket_report", "evaluate",
         "evaluate_mapped", "wilson_interval"), "evaluation"),
    **dict.fromkeys(("BenchConfig", "ThroughputReport", "benchmark"), "engine"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "AffiliationRecord",
    "AugmentBudget",
    "BenchConfig",
    "ClassifierModel",
    "CorpusSplits",
    "DuplicateLabelError",
    "EvalReport",
    "InputFormatError",
    "LabelMapping",
    "ModelConfig",
    "NameRecord",
    "NormalizationTable",
    "Provenance",
    "RecordError",
    "SplitConfig",
    "StubNameGenerator",
    "StubNameValidator",
    "Taxonomy",
    "TaxonomyError",
    "ThroughputReport",
    "TrainConfig",
    "TrainLog",
    "UnknownLabelError",
    "assemble_augmented_splits",
    "audit_splits",
    "benchmark",
    "bias_report",
    "bucket_report",
    "build_filtered_test",
    "build_labeled_corpus",
    "collect_synthetic",
    "compute_budgets",
    "enforce_no_leakage",
    "evaluate",
    "evaluate_mapped",
    "fit_tokenizer",
    "load_mapping",
    "load_model",
    "load_taxonomy",
    "name_key",
    "normalize_country",
    "normalize_label",
    "normalize_name",
    "read_records",
    "register_taxonomy",
    "save_model",
    "split_corpus",
    "train",
    "wilson_interval",
    "write_records",
]
