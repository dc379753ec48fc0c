module dbpl/bench

go 1.22

require dbpl v0.0.0

replace dbpl => ../
