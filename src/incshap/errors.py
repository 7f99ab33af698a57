"""Exception types shared across the package.

Every error carries a machine-readable ``kind`` so the CLI can emit
structured refusals and callers can dispatch without string matching.
"""


class IncshapError(Exception):
    kind = "error"


class InputError(IncshapError):
    """Malformed or inconsistent caller input (bad fact id, wrong schema, ...)."""

    kind = "input_error"


class SchemaError(InputError):
    kind = "schema_error"


class ArityError(SchemaError):
    """A fact whose value count is not its relation's arity; remembers the fact."""

    def __init__(self, message, fact):
        super().__init__(message)
        self.fact = fact


class DuplicateFactError(InputError):
    """A fact that repeats an earlier one of its relation; remembers both."""

    def __init__(self, message, fact, first):
        super().__init__(message)
        self.fact, self.first = fact, first


class ParseError(InputError):
    """Syntax error in an FD spec file or CSV; remembers the offending line."""

    kind = "parse_error"

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class LoadError(InputError):
    kind = "load_error"


class IntractableExactError(IncshapError):
    """Exact computation refused because the FD set is outside the tractable class."""

    kind = "intractable_exact"

    suggestion = "use --method approx for a sampled estimate or --method oracle on small inputs"


class BudgetExceededError(IncshapError):
    """An exact combinatorial search ran past its configured node budget."""

    kind = "budget_exceeded"


class UnsupportedModeError(IncshapError):
    kind = "unsupported_mode"


class OracleLimitError(IncshapError):
    """Brute-force oracle refused an instance above its size limits."""

    kind = "size_limit"
