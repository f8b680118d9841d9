module parblast/bench

go 1.22

require parblast v0.0.0

replace parblast => ../
