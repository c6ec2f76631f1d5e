module omptune/benchmark

go 1.22

require omptune v0.0.0

replace omptune => ../
