module mtcache/bench

go 1.22

require mtcache v0.0.0

replace mtcache => ../
