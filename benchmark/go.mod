module datastaging/benchmark

go 1.22

require datastaging v0.0.0

replace datastaging => ../
