"""Exact-arithmetic lattices, cones and group cohomology for the study of
Klein (holomorphic/anti-holomorphic) actions on hyperkahler-type Hodge
lattices."""

__version__ = "0.1.0"
