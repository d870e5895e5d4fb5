"""Deep fusion sentiment network: joint visual-textual sentiment classification.

A self-contained implementation: a numpy-backed reverse-mode autodiff engine,
a five-layer convolutional image branch, a multi-width text convolution branch
with max/mean/min pooling, a fused fully-connected head, SGD training with a
staircase learning-rate schedule, and the file formats tying them together.

The public surface is the ``dfsn`` command (``dfsn.cli``) and the submodules
themselves; nothing is re-exported at the package level.
"""

__version__ = "0.1.0"
