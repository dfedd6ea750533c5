module nerglobalizer/bench

go 1.22

require nerglobalizer v0.0.0

replace nerglobalizer => ../
