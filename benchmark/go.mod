module scioto/benchmark

go 1.22

require scioto v0.0.0

replace scioto => ../
