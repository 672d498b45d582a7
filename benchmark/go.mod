module sdnshield/benchmark

go 1.22

require sdnshield v0.0.0

replace sdnshield => ../
