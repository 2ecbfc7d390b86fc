//go:build !race

package siterecovery

const raceEnabled = false
