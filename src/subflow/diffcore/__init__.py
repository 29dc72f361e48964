"""Autodiff substrate: tensors, tape, network builders, Adam, checkpoints."""

from .checkpoint import load_params, save_params
from .nets import Conv2dLayer, DenseNet, conv_shapes, dense_shapes
from .optim import Adam
from .rng import glorot_uniform, named_stream
from .tensor import (Tensor, add, as_tensor, avg_pool2d, clamp, concat, conv2d, log,
                     matmul, mse, mul, relu, reshape, sigmoid, sqrt, sub, tanh,
                     tile_matmul, tmean, transpose, tsum, upsample2x)

__all__ = [
    "Adam", "Conv2dLayer", "DenseNet", "Tensor", "add", "as_tensor", "avg_pool2d",
    "clamp", "concat", "conv2d", "conv_shapes", "dense_shapes", "glorot_uniform",
    "load_params", "log", "matmul", "mse", "mul", "named_stream", "relu", "reshape",
    "save_params", "sigmoid", "sqrt", "sub", "tanh", "tile_matmul", "tmean", "transpose",
    "tsum", "upsample2x",
]
