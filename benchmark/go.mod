module osprey/benchmark

go 1.24

require osprey v0.0.0

replace osprey => ../
