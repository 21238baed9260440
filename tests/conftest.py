"""The per-op references in oracles.py compute with Tensor's elementwise,
reduction and shape ops, which the package does not ship; tensor_ops
supplies them for every test module."""

import tensor_ops

tensor_ops.install()
