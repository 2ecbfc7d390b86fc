module siterecovery/bench

go 1.22

require siterecovery v0.0.0

replace siterecovery => ../
