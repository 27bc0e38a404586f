module activermt/bench

go 1.22

require activermt v0.0.0

replace activermt => ../
