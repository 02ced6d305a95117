package search

// EachRoute is eachRoute, for the external oracle tests.
var EachRoute = eachRoute
