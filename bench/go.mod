module metamess/bench

go 1.22

require metamess v0.0.0

replace metamess => ../
