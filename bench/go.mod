module github.com/factordb/fdb/bench

go 1.21

require github.com/factordb/fdb v0.0.0

replace github.com/factordb/fdb => ../
