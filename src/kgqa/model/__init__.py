"""Neural scoring core: layers, network, optimizer, gradient checking."""
