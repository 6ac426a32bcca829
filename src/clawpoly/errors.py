"""Error taxonomy shared by all modules, the dimension cap policy, and the
progress log.

Every precondition failure raises a subclass of ClawpolyError so the CLI can
map it to a stable exit code (2 for preconditions, 3 for resource caps).
"""

import os
import sys

from .rationals import parse_int

DEFAULT_MAX_DIM = 12
MAX_DIM_ENV = "CLAWPOLY_MAX_DIM"


class ClawpolyError(Exception):
    """Base class for all package errors."""


class DimensionError(ClawpolyError):
    """Shape or dimension mismatch between a point/matrix and a system."""


class LeafCountError(ClawpolyError):
    """Leaf count m outside the supported range (claw trees need m >= 3)."""


class UnsupportedGroupError(ClawpolyError):
    """Operation restricted to a specific group received a different one."""


class NotAMemberError(ClawpolyError):
    """Point lies outside the polytope required by the operation."""


class IntegralPointError(ClawpolyError):
    """Segment-interior witness requested for an integral point (a vertex)."""


class ConfigurationError(ClawpolyError):
    """A CLI usage error (--samples below 1, a missing --labeling or
    --point, a bad labeling token), a group hull or f-vector of points not
    its claw polytope's vertices, or an internal error: a witness direction
    that escapes a bounded polytope, an orbit facet that cuts off a vertex
    or touches none, or an f-vector that fails Euler's relation or counts a fractional
    number of faces."""


class ResourceCapError(ClawpolyError):
    """Requested computation exceeds the configured size cap."""


def dimension_cap(max_dim):
    """max_dim, else CLAWPOLY_MAX_DIM, else 12; a cap below 1 is refused, and
    so is an environment value that parse_int does not read."""
    if max_dim is not None:
        source, cap = "dimension cap", max_dim
    else:
        raw = os.environ.get(MAX_DIM_ENV)
        if raw is None:
            return DEFAULT_MAX_DIM
        try:
            source, cap = MAX_DIM_ENV, parse_int(raw)
        except ValueError:
            raise ResourceCapError(f"{MAX_DIM_ENV} must be an integer, got {raw!r}")
    if cap < 1:
        raise ResourceCapError(f"{source} must be at least 1, got {cap}")
    return cap


def check_dimension(d, max_dim=None) -> None:
    """Refuse a double description in dimension d above the cap."""
    cap = dimension_cap(max_dim)
    if d > cap:
        raise ResourceCapError(f"dimension {d} exceeds cap {cap}")


class UnboundedError(ClawpolyError):
    """Inequality system describes an unbounded polyhedron."""


class InfeasibleError(ClawpolyError):
    """Inequality system has no solutions."""


class FileFormatError(ClawpolyError):
    """Malformed polyhedron or point file."""


class InfoLog:
    """The INFO records of one logger, sent only once logging is loaded.

    No module of the package imports logging, so a run without -v never
    loads it. Until a caller (cli -v, a test) imports it, no handler can
    exist and logging's last-resort handler drops INFO records, so a record
    skipped then would not have been shown.
    """

    def __init__(self, name: str):
        self.name = name

    def info(self, msg: str, *args) -> None:
        logging = sys.modules.get("logging")
        if logging is not None:
            logging.getLogger(self.name).info(msg, *args, stacklevel=2)
