"""Stylization of 3D Gaussian scenes from image or text references.

Pipeline: per-Gaussian color embeddings are distilled once per scene, a
flow-matched alignment maps image/text features into the style-statistics
domain, AdaIN re-normalizes the embeddings, and a shared decoder emits the
stylized colors. Rendering, metrics, and a CLI round the package out.
"""

from . import runtime

__version__ = "0.1.0"

runtime.pin_blas_threads()
