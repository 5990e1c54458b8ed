package fixture

func Facade() {}
