"""Text-to-SQL prompt engineering and execution-accuracy evaluation."""

from .bench import BenchmarkSplit, TaskInstance, introspect_database, load_split
from .budget import (
    TokenBudget,
    count_tokens,
    partition_columns,
    plan_example_truncation,
    truncate_examples,
    truncate_target,
)
from .curation import (
    ExamplePool,
    SimilarityTriple,
    cosine,
    curate_top_k,
    score_candidates,
    select_top_k,
)
from .evaluate import EvalOutcome, aggregate, execute_and_compare
from .gateway import LlmClient, LlmEndpoint, ReplayStore, extract_sql
from .prompts import PromptBundle, SftPair, build_few_shot_prompt, build_open_prompt
from .schema import (
    ColumnSpec,
    DatabaseCatalog,
    ForeignKey,
    SchemaVariant,
    TableSpec,
    render_schema,
    render_schema_format_header,
)
from .skeleton import SqlToken, extract_skeleton, tokenize
from .taxonomy import ErrorLabel, classify, tabulate

__version__ = "0.1.0"

__all__ = [
    "BenchmarkSplit",
    "ColumnSpec",
    "DatabaseCatalog",
    "ErrorLabel",
    "EvalOutcome",
    "ExamplePool",
    "ForeignKey",
    "LlmClient",
    "LlmEndpoint",
    "PromptBundle",
    "ReplayStore",
    "SchemaVariant",
    "SftPair",
    "SimilarityTriple",
    "SqlToken",
    "TableSpec",
    "TaskInstance",
    "TokenBudget",
    "aggregate",
    "build_few_shot_prompt",
    "build_open_prompt",
    "classify",
    "cosine",
    "count_tokens",
    "curate_top_k",
    "execute_and_compare",
    "extract_skeleton",
    "extract_sql",
    "introspect_database",
    "load_split",
    "partition_columns",
    "plan_example_truncation",
    "render_schema",
    "render_schema_format_header",
    "score_candidates",
    "select_top_k",
    "tabulate",
    "tokenize",
    "truncate_examples",
    "truncate_target",
]
