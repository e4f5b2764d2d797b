module github.com/nezha-dag/nezha/benchmark

go 1.22

require github.com/nezha-dag/nezha v0.0.0

replace github.com/nezha-dag/nezha => ../
