package env

// EnvironOf exposes environOf to the external tests.
var EnvironOf = environOf
