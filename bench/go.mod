module emap/bench

go 1.24

require emap v0.0.0

replace emap => ../
