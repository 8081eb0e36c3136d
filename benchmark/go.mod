module nocsim/benchmark

go 1.22

require nocsim v0.0.0

replace nocsim => ../
