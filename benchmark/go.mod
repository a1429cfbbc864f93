module streamcount/benchmark

go 1.24

require streamcount v0.0.0

replace streamcount => ../
